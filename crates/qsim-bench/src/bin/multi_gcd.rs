//! Multi-GCD scaling study — the paper's future work (§7: multi-GPU
//! porting of the HIP backend to reach larger qubit counts), modeled.
//!
//! Questions:
//! 1. **Strong scaling**: does sharding the paper's 30-qubit RQC over
//!    2/4/8 GCDs pay off despite the interconnect traffic of
//!    global-qubit swaps?
//! 2. **Weak scaling**: does holding the *per-device* shard size fixed
//!    (one extra qubit per device doubling) keep the time flat?
//! 3. **Capacity scaling**: which qubit counts become *feasible* as GCDs
//!    are added (each GCD contributes 128 GB)?
//! 4. **Scheduling/overlap**: how much exchange traffic does the
//!    lookahead swap scheduler avoid versus the eager baseline, and how
//!    much link time does comm/compute overlap hide?
//!
//! `multi_gcd ci` is the CI gate: it regenerates
//! `results/multi_gcd_strong.csv` and asserts the speedup is monotone in
//! device count, the scheduler beats eager swaps by ≥ 30 % exchanged
//! bytes on a 32q depth-20 RQC, overlap beats serialized exchange on the
//! same circuit, and a 34-qubit RQC fits (per device) on an 8-GCD node.

use qsim_backends::{BackendError, DistReport, Flavor, FusionPlan, RunReport, SweepConfig};
use qsim_bench::{paper_circuit, write_csv, Claim, Series, FUSION_SWEEP};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_cli::args::{parse_backend, parse_devices, parse_precision, parse_topology};
use qsim_core::types::Precision;
use qsim_distributed::interconnect::Topology;
use qsim_distributed::schedule::{DistOptions, SwapPolicy};
use qsim_distributed::MultiGcdBackend;
use qsim_fusion::{fuse, FusedCircuit};

const USAGE: &str = "\
usage: multi_gcd [options]           full scaling study
       multi_gcd ci [options]        CI assertions + results CSV

options:
    --flavor NAME     backend flavor: cpu | cuda | custatevec | hip
                      (default hip)
    --precision NAME  single | double (default single)
    --devices N       largest device count in the sweeps, a power of two
                      <= 64 (default 8)
    --topology NAME   fabric: in-package | node | nvlink | frontier
                      (default: the flavor's native uniform link)";

struct Opts {
    flavor: Flavor,
    precision: Precision,
    max_devices: usize,
    topology: Option<Topology>,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { flavor: Flavor::Hip, precision: Precision::Single, max_devices: 8, topology: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--flavor" => opts.flavor = parse_backend(&value("--flavor")?)?,
            "--precision" => opts.precision = parse_precision(&value("--precision")?)?,
            "--devices" => opts.max_devices = parse_devices(&value("--devices")?)?,
            "--topology" => opts.topology = Some(parse_topology(&value("--topology")?)?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

fn backend(opts: &Opts, devices: usize) -> MultiGcdBackend {
    match opts.topology {
        Some(t) => MultiGcdBackend::with_topology(opts.flavor, devices, t),
        None => MultiGcdBackend::new(opts.flavor, devices),
    }
}

/// The modeled report of a dry run of `fused` on `backend`.
fn estimate(
    backend: &MultiGcdBackend,
    fused: &FusedCircuit,
    precision: Precision,
) -> Result<RunReport, BackendError> {
    let plan = FusionPlan::check(fused.clone().into(), SweepConfig::disabled());
    backend.estimate_plan(&plan, precision)
}

/// The sharding section of a sharded report.
fn sharding(report: &RunReport) -> &DistReport {
    report.sharding.as_ref().expect("a sharded walk reports its sharding")
}

/// Device counts swept: 1, 2, 4, … up to the requested maximum.
fn device_sweep(max_devices: usize) -> Vec<usize> {
    (0..).map(|d| 1usize << d).take_while(|&d| d <= max_devices).collect()
}

/// The strong-scaling series (one per device count) on the paper's
/// 30-qubit RQC, across the fusion sweep.
fn strong_series(opts: &Opts) -> Vec<Series> {
    let circuit = paper_circuit();
    device_sweep(opts.max_devices)
        .into_iter()
        .map(|devices| {
            let vals: Vec<f64> = FUSION_SWEEP
                .iter()
                .map(|&f| {
                    let fused = fuse(&circuit, f);
                    estimate(&backend(opts, devices), &fused, opts.precision)
                        .expect("estimate")
                        .simulated_seconds
                })
                .collect();
            Series::new(format!("{devices} GCD(s)"), vals)
        })
        .collect()
}

/// Estimate the 32q depth-20 RQC under explicit scheduling options.
fn estimate_32q(opts: &Opts, devices: usize, dist: DistOptions) -> RunReport {
    let circuit = generate_rqc(&RqcOptions::for_qubits(32, 20, 77));
    let fused = fuse(&circuit, 4);
    estimate(&backend(opts, devices).with_options(dist), &fused, opts.precision)
        .expect("32q estimate")
}

fn bench(opts: &Opts) {
    // ---- strong scaling on the paper workload --------------------------
    println!(
        "multi-GCD strong scaling: RQC n=30, {} flavor, {} precision\n",
        opts.flavor.label(),
        opts.precision.name()
    );
    let mut series = strong_series(opts);
    // A Frontier-node topology row: bit-0 pairs share a package, higher
    // bits cross the node fabric.
    if opts.topology.is_none() && opts.max_devices >= 4 {
        let circuit = paper_circuit();
        let vals: Vec<f64> = FUSION_SWEEP
            .iter()
            .map(|&f| {
                let fused = fuse(&circuit, f);
                let frontier =
                    MultiGcdBackend::with_topology(opts.flavor, 4, Topology::frontier_node());
                estimate(&frontier, &fused, opts.precision).expect("estimate").simulated_seconds
            })
            .collect();
        series.push(Series::new("4 GCDs (Frontier 2-level fabric)", vals));
    }
    print!("{}", qsim_bench::render_table("execution time", "s", &series));
    let f4 = 3;
    println!("\nstrong-scaling efficiency at f=4:");
    let t1 = series[0].values[f4];
    for s in &series {
        let d: f64 = s.label.split_whitespace().next().unwrap().parse().unwrap();
        let eff = t1 / (s.values[f4] * d);
        println!(
            "  {:<10} {:>8.3} s   parallel efficiency {:>5.1} %",
            s.label,
            s.values[f4],
            100.0 * eff
        );
    }
    if opts.max_devices >= 4 {
        let fused = fuse(&paper_circuit(), 4);
        let r = estimate(&backend(opts, 4), &fused, opts.precision).expect("estimate");
        let serialized = DistOptions { overlap: false, ..DistOptions::default() };
        let serial = estimate(&backend(opts, 4).with_options(serialized), &fused, opts.precision)
            .expect("estimate");
        let s = sharding(&r);
        println!(
            "  at 4 GCDs: {} swaps in {} exchange epochs, {:.2} GiB exchanged per device,\n\
             \x20 {:.3} s of link time ({:.1} % hidden behind compute by overlap)",
            s.swaps,
            s.swap_epochs,
            s.exchanged_bytes_per_device as f64 / (1u64 << 30) as f64,
            s.exchange_seconds,
            100.0 * (serial.simulated_seconds - r.simulated_seconds)
                / s.exchange_seconds.max(f64::MIN_POSITIVE),
        );
    }
    match write_csv("multi_gcd_strong.csv", &series) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => println!("\ncsv write failed: {e}"),
    }

    // ---- weak scaling --------------------------------------------------
    println!("\nmulti-GCD weak scaling: shard fixed at 2^27 amps/device (f=4)\n");
    println!("{:<10} {:>8} {:>12} {:>12}", "GCDs", "qubits", "time (s)", "vs 1 GCD");
    let mut t_base = 0.0;
    for devices in device_sweep(opts.max_devices) {
        let n = 27 + devices.trailing_zeros() as usize;
        let c = generate_rqc(&RqcOptions::for_qubits(n, 14, 2023));
        let fused = fuse(&c, 4);
        let t = estimate(&backend(opts, devices), &fused, opts.precision)
            .expect("estimate")
            .simulated_seconds;
        if devices == 1 {
            t_base = t;
        }
        println!("{devices:<10} {n:>8} {t:>12.3} {:>11.2}x", t / t_base);
    }

    // ---- capacity scaling ----------------------------------------------
    println!("\nmulti-GCD capacity: largest RQC feasible per device count (f=4)\n");
    println!("{:<10} {:>8} {:>14} {:>14}", "GCDs", "qubits", "state (GiB)", "time (s)");
    for devices in device_sweep(opts.max_devices.max(16)) {
        // Scan upward until OOM.
        let mut best: Option<(usize, f64)> = None;
        for n in 30..=qsim_core::statevec::MAX_QUBITS {
            let c = generate_rqc(&RqcOptions::for_qubits(n, 14, 2023));
            let fused = fuse(&c, 4);
            match estimate(&backend(opts, devices), &fused, opts.precision) {
                Ok(r) => best = Some((n, r.simulated_seconds)),
                Err(BackendError::Gpu(_)) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let (n, t) = best.expect("at least n=30 fits");
        let gib =
            ((1u64 << n) * opts.precision.amplitude_bytes() as u64) as f64 / (1u64 << 30) as f64;
        println!("{devices:<10} {n:>8} {gib:>14.0} {t:>14.3}");
    }

    // ---- scheduling / overlap ablation ---------------------------------
    println!("\nswap scheduling + overlap on a 32q depth-20 RQC (8 GCDs, f=4):\n");
    let naive = estimate_32q(opts, 8, DistOptions::naive());
    let sched = estimate_32q(
        opts,
        8,
        DistOptions { policy: SwapPolicy::Lookahead, overlap: false, chunks: 1 },
    );
    let full = estimate_32q(opts, 8, DistOptions::default());
    for (label, r) in [
        ("eager, serialized", &naive),
        ("lookahead, serialized", &sched),
        ("lookahead, overlapped", &full),
    ] {
        let s = sharding(r);
        println!(
            "  {label:<24} {:>5} swaps {:>4} epochs {:>8.2} GiB/dev exchanged {:>8.3} s",
            s.swaps,
            s.swap_epochs,
            s.exchanged_bytes_per_device as f64 / (1u64 << 30) as f64,
            r.simulated_seconds
        );
    }
    println!(
        "\n  scheduler: {:.1} % fewer exchanged bytes; overlap: {:.1} % less end-to-end time",
        100.0
            * (1.0
                - sharding(&sched).exchanged_bytes_per_device as f64
                    / sharding(&naive).exchanged_bytes_per_device as f64),
        100.0 * (1.0 - full.simulated_seconds / sched.simulated_seconds)
    );
}

fn ci(opts: &Opts) -> Result<(), String> {
    // The asserted numbers are for the default HIP/single configuration;
    // flags still steer the CSV series.
    let series = strong_series(opts);
    let path = write_csv("multi_gcd_strong.csv", &series).map_err(|e| e.to_string())?;
    println!("wrote {path}");

    let f4 = 3;
    let at_f4: Vec<(String, f64)> =
        series.iter().map(|s| (s.label.clone(), s.values[f4])).collect();
    let monotone = at_f4.windows(2).all(|w| w[1].1 < w[0].1);

    let naive = estimate_32q(opts, 8, DistOptions::naive());
    let sched = estimate_32q(
        opts,
        8,
        DistOptions { policy: SwapPolicy::Lookahead, overlap: false, chunks: 1 },
    );
    let full = estimate_32q(opts, 8, DistOptions::default());
    let (naive_bytes, sched_bytes) =
        (sharding(&naive).exchanged_bytes_per_device, sharding(&sched).exchanged_bytes_per_device);
    let byte_cut = 1.0 - sched_bytes as f64 / naive_bytes as f64;

    // Capacity: a 34-qubit RQC estimates cleanly on 8 GCDs with the
    // per-device shard below one device's memory.
    let big = generate_rqc(&RqcOptions::for_qubits(34, 14, 7));
    let capacity = estimate(&backend(opts, 8), &fuse(&big, 4), opts.precision)
        .map_err(|e| format!("34q estimate: {e}"))?;
    let shard_bytes = capacity.state_bytes / sharding(&capacity).devices as u64;
    let device_memory = opts.flavor.default_spec().memory_bytes;

    let claims = vec![
        Claim {
            description: "strong-scaling speedup monotone in device count".into(),
            paper: "qHiPSTER fig. 7".into(),
            model: at_f4
                .iter()
                .map(|(l, t)| format!("{l}: {t:.3}s"))
                .collect::<Vec<_>>()
                .join(", "),
            holds: monotone,
        },
        Claim {
            description: "lookahead scheduler cuts exchanged bytes >= 30 %".into(),
            paper: "qHiPSTER §4".into(),
            model: format!(
                "{:.1} % ({:.2} -> {:.2} GiB/dev, {} -> {} swaps)",
                100.0 * byte_cut,
                naive_bytes as f64 / (1u64 << 30) as f64,
                sched_bytes as f64 / (1u64 << 30) as f64,
                sharding(&naive).swaps,
                sharding(&sched).swaps
            ),
            holds: byte_cut >= 0.30,
        },
        Claim {
            description: "overlap beats serialized exchange end-to-end".into(),
            paper: "qHiPSTER §5".into(),
            model: format!(
                "{:.3} s -> {:.3} s ({:.3} s link time)",
                sched.simulated_seconds,
                full.simulated_seconds,
                sharding(&full).exchange_seconds
            ),
            holds: full.simulated_seconds < sched.simulated_seconds,
        },
        Claim {
            description: "34q RQC fits per-device on an 8-GCD node".into(),
            paper: "paper §7 (future work)".into(),
            model: format!(
                "{:.0} GiB shard vs {:.0} GiB device memory",
                shard_bytes as f64 / (1u64 << 30) as f64,
                device_memory as f64 / (1u64 << 30) as f64
            ),
            holds: shard_bytes < device_memory,
        },
    ];
    print!("{}", qsim_bench::render_claims(&claims));
    if claims.iter().all(|c| c.holds) {
        Ok(())
    } else {
        Err("a multi-GCD scaling claim failed".into())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode_ci, rest) = match argv.first().map(String::as_str) {
        Some("ci") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let opts = match parse_opts(rest) {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("multi_gcd: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if mode_ci {
        if let Err(message) = ci(&opts) {
            eprintln!("multi_gcd ci: {message}");
            std::process::exit(1);
        }
    } else {
        bench(&opts);
    }
}
