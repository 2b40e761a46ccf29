//! `qsim_base` — the command-line simulator app, mirroring qsim's
//! `qsim_base_cuda.cu → qsim_base_hip.cpp` program from the paper's §3:
//! reads a circuit file in qsim's text format, runs it on a chosen
//! backend with a chosen maximum fused-gate size and precision, and
//! prints amplitudes plus timing.
//!
//! ```text
//! qsim_base -c circuits/circuit_q24 -b hip -f 4 -p single -t trace.json
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use qsim_analyze::Analyzer;
use qsim_backends::{
    Flavor, FusionPlan, FusionStrategy, PlanOptions, RunOptions, RunReport, SimBackend, SweepConfig,
};
use qsim_circuit::parser::{parse_circuit, parse_circuit_unchecked};
use qsim_cli::args::{
    parse_backend, parse_devices, parse_max_fused, parse_precision, parse_sweep_block,
    parse_topology,
};
use qsim_core::types::{Float, Precision};
use qsim_distributed::interconnect::Topology;
use qsim_distributed::MultiGcdBackend;
use qsim_trace::{Profiler, TraceStats};
use serde_json::json;

struct Args {
    circuit_file: String,
    max_fused: usize,
    strategy: FusionStrategy,
    backend: Flavor,
    precision: Precision,
    seed: u64,
    trace_file: Option<String>,
    num_amplitudes: usize,
    sample_count: usize,
    estimate_only: bool,
    verbose: bool,
    json: bool,
    sweep_block: Option<usize>,
    no_sweep: bool,
    no_simd: bool,
    devices: usize,
    topology: Option<Topology>,
}

const USAGE: &str = "\
qsim_base — state-vector circuit simulator on modeled CPU/GPU backends

USAGE:
    qsim_base -c <circuit-file> [options]
    qsim_base analyze -c <circuit-file> [options]   (see `analyze -h`)

OPTIONS:
    -c FILE    circuit file in qsim text format (required)
    -f N       maximum number of fused gate qubits, 1..=6 (default 2)
    --fusion NAME
               fusion strategy: greedy merges into the latest legal slot;
               cost scores each merge with the active backend's cost
               model; auto additionally sweeps fusion budgets 2..=6 and
               picks the cheapest, ignoring -f (default greedy)
    -b NAME    backend: cpu | cuda | custatevec | hip (default cpu)
    -p PREC    precision: single | double (default single)
    -s SEED    seed for measurement gates (default 0)
    -t FILE    write a Perfetto/Chrome trace JSON to FILE
    -n N       print the first N amplitudes (default 8)
    -S N       sample N bitstrings from the final state (SampleKernel)
    -e         estimate only: model the timing without computing
               amplitudes (permits the paper's 30-qubit runs anywhere)
    -B N       cache-blocked sweep block size in amplitudes, a power of
               two (cpu backend; default 65536)
    --no-sweep disable the cache-blocked sweep: one pass per fused gate
    --no-simd  disable the AVX2/AVX-512 lane kernels: scalar host kernels
               only (equivalent to QSIM_NO_SIMD=1 in the environment)
    --devices N
               shard the state across N modeled devices (a power of two,
               1..=64; default 1 = single device). Gates on global qubits
               run via scheduled pairwise shard exchanges over the fabric,
               overlapped with the local kernel sweep
    --topology NAME
               fabric joining a --devices run: in-package | node |
               nvlink | frontier (default: the backend's native uniform
               link — NVLink for cuda/custatevec, Infinity Fabric else)
    --json     print the run report as a JSON document instead of text
    -v         print per-kernel statistics
    -h         this help
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        circuit_file: String::new(),
        max_fused: 2,
        strategy: FusionStrategy::Greedy,
        backend: Flavor::CpuAvx,
        precision: Precision::Single,
        seed: 0,
        trace_file: None,
        num_amplitudes: 8,
        sample_count: 0,
        estimate_only: false,
        verbose: false,
        json: false,
        sweep_block: None,
        no_sweep: false,
        no_simd: false,
        devices: 1,
        topology: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "-c" => args.circuit_file = value("-c")?,
            "-f" => args.max_fused = parse_max_fused(&value("-f")?)?,
            "--fusion" => args.strategy = value("--fusion")?.parse()?,
            "-b" => args.backend = parse_backend(&value("-b")?)?,
            "-p" => args.precision = parse_precision(&value("-p")?)?,
            "-s" => {
                args.seed =
                    value("-s")?.parse().map_err(|_| "-s expects an integer".to_string())?;
            }
            "-t" => args.trace_file = Some(value("-t")?),
            "-n" => {
                args.num_amplitudes =
                    value("-n")?.parse().map_err(|_| "-n expects an integer".to_string())?;
            }
            "-S" => {
                args.sample_count =
                    value("-S")?.parse().map_err(|_| "-S expects an integer".to_string())?;
            }
            "-e" => args.estimate_only = true,
            "-B" => args.sweep_block = Some(parse_sweep_block(&value("-B")?)?),
            "--no-sweep" => args.no_sweep = true,
            "--no-simd" => args.no_simd = true,
            "--devices" => args.devices = parse_devices(&value("--devices")?)?,
            "--topology" => args.topology = Some(parse_topology(&value("--topology")?)?),
            "--json" => args.json = true,
            "-v" => args.verbose = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if args.circuit_file.is_empty() {
        return Err("a circuit file is required (-c FILE)".into());
    }
    if args.devices > 1 && args.trace_file.is_some() {
        return Err("-t tracing is not supported with --devices > 1".into());
    }
    Ok(args)
}

fn print_report(report: &RunReport, verbose: bool, profiler: Option<&Profiler>) {
    println!("backend:            {} ({})", report.backend, report.device);
    println!("host SIMD:          {} ({} lane-Low gates)", report.isa, report.lane_low_gates());
    println!("precision:          {}", report.precision);
    println!("qubits:             {}", report.num_qubits);
    println!("max fused qubits:   {}", report.max_fused_qubits);
    println!(
        "fusion strategy:    {} (predicted {:.6} s)",
        report.fusion_strategy, report.predicted_cost_seconds
    );
    println!("fused gate passes:  {}", report.fused_gates);
    let widths: Vec<String> = report
        .fusion_stats
        .fused_by_qubit_count
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(w, c)| format!("{w}q:{c}"))
        .collect();
    println!(
        "fused widths:       {} (compression {:.2}x)",
        widths.join(" "),
        report.fusion_stats.compression()
    );
    println!(
        "state passes:       {} ({} saved by cache-blocked sweep)",
        report.state_passes,
        report.passes_saved()
    );
    println!(
        "amp updates:        {} ({:.1} % of fused gates x 2^{}: zeros above the live prefix skipped)",
        report.amp_updates,
        100.0 * report.amp_updates as f64
            / (report.fused_gates.max(1) as f64 * (1u64 << report.num_qubits) as f64),
        report.num_qubits
    );
    println!("state memory:       {:.3} GiB", report.state_bytes as f64 / (1u64 << 30) as f64);
    println!("simulated time:     {:.6} s (device model)", report.simulated_seconds);
    println!(
        "  of which fusion:  {:.6} s ({:.2} %)",
        report.fusion_seconds,
        100.0 * report.fusion_fraction()
    );
    println!("host wall time:     {:.6} s", report.wall_seconds);
    for w in &report.analysis_warnings {
        println!("analysis warning:   {w}");
    }
    for (qubits, outcome) in &report.measurements {
        println!("measured {qubits:?} -> {outcome:#b}");
    }
    if !report.samples.is_empty() {
        println!("\nsampled bitstrings (first 20 of {}):", report.samples.len());
        for s in report.samples.iter().take(20) {
            println!("  {s:0width$b}", width = report.num_qubits);
        }
    }
    if verbose {
        if let Some(s) = &report.sharding {
            println!(
                "\nsharding:           {} devices x 2^{} amps: {} swaps in {} epochs, \
                 {:.3} GiB exchanged per device, {:.6} s of link time",
                s.devices,
                s.local_qubits,
                s.swaps,
                s.swap_epochs,
                s.exchanged_bytes_per_device as f64 / (1u64 << 30) as f64,
                s.exchange_seconds
            );
        }
        if !report.gate_class_counts.is_empty() {
            println!("\ngate classes (GPU kernel / CPU lane):");
            for c in &report.gate_class_counts {
                println!("  {:<6?} / {:<6?} {:>6} gates", c.gpu_kernel, c.cpu_lane, c.count);
            }
        }
        if let Some(p) = profiler {
            println!("\nper-kernel statistics (simulated):");
            print!("{}", TraceStats::from_spans(&p.spans()).table());
        } else {
            println!("\nper-kernel launch totals:");
            for k in &report.kernels {
                println!("  {:<28} {:>6} calls {:>14.1} us", k.name, k.count, k.time_us);
            }
        }
    }
}

/// Run `plan` at precision `F` — sharded when `dist` is given — and return
/// the report with the first `count` amplitudes.
fn run_plan<F: Float>(
    backend: &SimBackend,
    dist: Option<&MultiGcdBackend>,
    plan: &FusionPlan,
    opts: &RunOptions,
    count: usize,
) -> Result<(RunReport, Vec<(f64, f64)>), String> {
    let (state, report) = match dist {
        Some(d) => d.run_plan::<F>(plan, opts),
        None => backend.run_plan::<F>(plan, opts),
    }
    .map_err(|e| e.to_string())?;
    let amps = (0..count.min(state.len()))
        .map(|i| (state.amplitude(i).re.to_f64(), state.amplitude(i).im.to_f64()))
        .collect();
    Ok((report, amps))
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.circuit_file)
        .map_err(|e| format!("cannot read {}: {e}", args.circuit_file))?;
    let circuit = parse_circuit(&text).map_err(|e| format!("parse error: {e}"))?;
    let (one, two, meas) = circuit.gate_counts();
    if !args.json {
        println!(
            "circuit: {} qubits, {} gates ({} single-qubit, {} two-qubit, {} measurement)",
            circuit.num_qubits,
            circuit.num_gates(),
            one,
            two,
            meas
        );
    }

    let profiler = args.trace_file.as_ref().map(|_| Arc::new(Profiler::new()));
    let mut backend = match &profiler {
        Some(p) => SimBackend::with_trace(args.backend, p.clone() as Arc<dyn gpu_model::TraceSink>),
        None => SimBackend::new(args.backend),
    };
    // Sweep and SIMD configuration come before planning: the CPU cost
    // model prices block locality and lane classes from the same settings
    // the run will execute under.
    if args.no_sweep {
        backend.set_sweep_config(SweepConfig::disabled());
    } else if let Some(block) = args.sweep_block {
        backend.set_sweep_config(SweepConfig::with_block_amps(block));
    }
    if args.no_simd {
        qsim_core::simd::set_simd_enabled(false);
    }
    // A --devices run plans and executes through the sharded multi-GCD
    // backend: its cost model prices the fabric exchanges, so the fusion
    // planner (notably --fusion auto) sees the distributed config space.
    let dist = (args.devices > 1).then(|| match args.topology {
        Some(topology) => MultiGcdBackend::with_topology(args.backend, args.devices, topology),
        None => MultiGcdBackend::new(args.backend, args.devices),
    });

    let plan_start = std::time::Instant::now();
    let plan_opts = PlanOptions { strategy: args.strategy, max_fused_qubits: args.max_fused };
    let plan = match &dist {
        Some(d) => d.plan_circuit(&circuit, &plan_opts, args.precision),
        None => backend.plan_circuit(&circuit, &plan_opts, args.precision),
    };
    let stats = plan.fused.stats();
    if !args.json {
        println!(
            "fusion:  {} passes from {} gates via {} (compression {:.2}x, predicted {:.6} s, host wall {:.3} ms)",
            stats.fused_gates,
            stats.source_gates,
            plan.strategy.label(),
            stats.compression(),
            plan.predicted_cost_seconds,
            plan_start.elapsed().as_secs_f64() * 1e3
        );
    }
    let opts = RunOptions { seed: args.seed, sample_count: args.sample_count };

    // (report, first-N amplitudes when computed)
    let (report, amplitudes) = if args.estimate_only {
        let report = match &dist {
            Some(d) => d.estimate_plan(&plan, args.precision),
            None => backend.estimate_plan(&plan, args.precision),
        };
        (report.map_err(|e| e.to_string())?, None)
    } else {
        let (n, dist) = (args.num_amplitudes, dist.as_ref());
        let (report, amps) = match args.precision {
            Precision::Single => run_plan::<f32>(&backend, dist, &plan, &opts, n)?,
            Precision::Double => run_plan::<f64>(&backend, dist, &plan, &opts, n)?,
        };
        (report, Some(amps))
    };

    if args.json {
        let amps_json: Option<Vec<serde_json::Value>> = amplitudes
            .as_ref()
            .map(|amps| amps.iter().map(|&(re, im)| json!([(re), (im)])).collect());
        let doc = json!({
            "circuit": {
                "file": (args.circuit_file.as_str()),
                "qubits": (circuit.num_qubits),
                "gates": (circuit.num_gates()),
            },
            "report": (report.to_json()),
            "amplitudes": (amps_json),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("report JSON serializes"));
    } else {
        print_report(&report, args.verbose, profiler.as_deref());
        if let Some(amps) = &amplitudes {
            println!("\nfirst {} amplitudes:", amps.len());
            let digits = if args.precision == Precision::Double { 16 } else { 8 };
            for (i, (re, im)) in amps.iter().enumerate() {
                println!("{i:>6}  {re:+.digits$}  {im:+.digits$}");
            }
        }
    }

    if let (Some(path), Some(p)) = (&args.trace_file, &profiler) {
        let json = qsim_trace::perfetto::to_json(&p.spans());
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.json {
            println!("\ntrace written to {path} (load at https://ui.perfetto.dev)");
        }
    }
    Ok(())
}

struct AnalyzeArgs {
    circuit_file: String,
    max_fused: usize,
    strategy: FusionStrategy,
    backend: Flavor,
    json: bool,
    deny_warnings: bool,
    sweep_block: Option<usize>,
    no_sweep: bool,
}

const ANALYZE_USAGE: &str = "\
qsim_base analyze — lint a circuit file and its fusion plan without running it

USAGE:
    qsim_base analyze -c <circuit-file> [options]

Checks the circuit structurally (QC00xx), semantically (QA01xx: unitarity,
identity gates, gates after measurement) and lints the fused execution plan
(QP02xx: shape, unitarity of fused products, sweep accounting, small-circuit
state-vector equivalence). Exit code 0 when the circuit passes.

OPTIONS:
    -c FILE          circuit file in qsim text format (required)
    -f N             maximum number of fused gate qubits, 1..=6 (default 2)
    --fusion NAME    fusion strategy to lint: greedy | cost | auto
                     (default greedy; cost/auto price merges with the
                     -b backend's cost model)
    -b NAME          backend whose cost model prices cost/auto plans:
                     cpu | cuda | custatevec | hip (default cpu)
    --json           print the report as JSON instead of human-readable text
    --deny-warnings  nonzero exit code on warnings, not just errors
    -B N             cache-blocked sweep block size in amplitudes, a power
                     of two (affects the sweep-accounting lints)
    --no-sweep       lint the plan with the cache-blocked sweep disabled
    -h               this help
";

fn parse_analyze_args(argv: &[String]) -> Result<AnalyzeArgs, String> {
    let mut args = AnalyzeArgs {
        circuit_file: String::new(),
        max_fused: 2,
        strategy: FusionStrategy::Greedy,
        backend: Flavor::CpuAvx,
        json: false,
        deny_warnings: false,
        sweep_block: None,
        no_sweep: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "-c" => args.circuit_file = value("-c")?,
            "-f" => args.max_fused = parse_max_fused(&value("-f")?)?,
            "--fusion" => args.strategy = value("--fusion")?.parse()?,
            "-b" => args.backend = parse_backend(&value("-b")?)?,
            "--json" => args.json = true,
            "--deny-warnings" => args.deny_warnings = true,
            "-B" => args.sweep_block = Some(parse_sweep_block(&value("-B")?)?),
            "--no-sweep" => args.no_sweep = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if args.circuit_file.is_empty() {
        return Err("a circuit file is required (-c FILE)".into());
    }
    Ok(args)
}

/// `analyze` subcommand: parse without the early structural bail-out so
/// the lint engine reports *every* finding, run the full rule set, and
/// report. Returns whether the circuit passed under the warning policy.
fn run_analyze(args: &AnalyzeArgs) -> Result<bool, String> {
    let text = std::fs::read_to_string(&args.circuit_file)
        .map_err(|e| format!("cannot read {}: {e}", args.circuit_file))?;
    let circuit = parse_circuit_unchecked(&text).map_err(|e| format!("parse error: {e}"))?;

    let sweep = if args.no_sweep {
        SweepConfig::disabled()
    } else if let Some(block) = args.sweep_block {
        SweepConfig::with_block_amps(block)
    } else {
        SweepConfig::default()
    };
    // Plan with the requested strategy, but only once the circuit itself
    // is clean — fusing a structurally invalid circuit is undefined, so a
    // bad circuit reports its own findings and skips plan linting (the
    // same short-circuit as [`Analyzer::analyze`]).
    let mut backend = SimBackend::new(args.backend);
    backend.set_sweep_config(sweep);
    let analyzer = Analyzer::new();
    let mut report = analyzer.analyze_circuit(&circuit);
    if !report.has_errors() {
        let plan_opts = PlanOptions { strategy: args.strategy, max_fused_qubits: args.max_fused };
        let plan = backend.plan_circuit(&circuit, &plan_opts, Precision::Single);
        report.extend(analyzer.analyze_plan(&plan.fused, Some(&circuit), sweep));
    }
    let passed = report.passes(args.deny_warnings);

    if args.json {
        let doc = json!({
            "file": (args.circuit_file.as_str()),
            "qubits": (circuit.num_qubits),
            "gates": (circuit.num_gates()),
            "max_fused_qubits": (args.max_fused),
            "fusion_strategy": (args.strategy.label()),
            "backend": (args.backend.label()),
            "passed": (passed),
            "analysis": (report.to_json()),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("analyze JSON serializes"));
    } else {
        let (one, two, meas) = circuit.gate_counts();
        println!(
            "circuit: {} qubits, {} gates ({} single-qubit, {} two-qubit, {} measurement)",
            circuit.num_qubits,
            circuit.num_gates(),
            one,
            two,
            meas
        );
        println!("{}", report.render());
        println!("result: {}", if passed { "pass" } else { "fail" });
    }
    Ok(passed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("analyze") {
        return match parse_analyze_args(&argv[1..]) {
            Ok(args) => match run_analyze(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(msg) => {
                if msg.is_empty() {
                    print!("{ANALYZE_USAGE}");
                    ExitCode::SUCCESS
                } else {
                    eprintln!("error: {msg}\n\n{ANALYZE_USAGE}");
                    ExitCode::FAILURE
                }
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        }
    }
}
