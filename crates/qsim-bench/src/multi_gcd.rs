//! Multi-GCD scaling study — the paper's future work (§7: multi-GPU
//! porting of the HIP backend to reach larger qubit counts), modeled:
//! strong, weak and capacity scaling of RQCs over 1, 2, 4, … GCDs, and
//! what the lookahead swap scheduler and comm/compute overlap save over
//! eager serialized exchange ([`bench()`]). [`ci()`] checks the study's claims.

use qsim_backends::{BackendError, DistReport, Flavor, RunReport};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_cli::args::{parse_backend, parse_devices, parse_precision, parse_topology};
use qsim_core::types::Precision::{self, Single};
use qsim_distributed::interconnect::Topology;
use qsim_distributed::schedule::{DistOptions, SwapPolicy};
use qsim_fusion::fuse;

use crate::*;

/// The study's flags.
pub struct Opts {
    pub flavor: Flavor,
    pub precision: Precision,
    /// Largest device count in the sweeps.
    pub max_devices: usize,
    /// The fabric; the flavor's native uniform link if `None`.
    pub topology: Option<Topology>,
}

impl Opts {
    /// Parse `--flavor`, `--precision`, `--devices` and `--topology`
    /// (each with a value) over the defaults: hip, single, 8 devices.
    pub fn parse(flags: &[&str]) -> Result<Opts, String> {
        let mut opts =
            Opts { flavor: Flavor::Hip, precision: Single, max_devices: 8, topology: None };
        for pair in flags.chunks(2) {
            match *pair {
                ["--flavor", v] => opts.flavor = parse_backend(v)?,
                ["--precision", v] => opts.precision = parse_precision(v)?,
                ["--devices", v] => opts.max_devices = parse_devices(v)?,
                ["--topology", v] => opts.topology = Some(parse_topology(v)?),
                [flag, ..] => return Err(format!("unknown option or missing value: '{flag}'")),
                [] => unreachable!("chunks are never empty"),
            }
        }
        Ok(opts)
    }

    /// The strong-scaling rows on the paper circuit: 1, 2, 4, … GCDs up to
    /// `max_devices`.
    fn strong_rows(&self) -> Vec<Row> {
        let sweep = (0..).map(|d| 1usize << d).take_while(|&d| d <= self.max_devices);
        sweep
            .map(|devices| self.row(format!("{devices} GCD(s)"), devices, Default::default()))
            .collect()
    }

    /// A row on `devices` GCDs of this study's configuration, exchanging
    /// under `options`.
    fn row(&self, label: impl Into<String>, devices: usize, options: DistOptions) -> Row {
        let device = Device::Sharded { devices, topology: self.topology, options };
        Row::new(label, self.flavor, self.precision).on(device)
    }
}

/// The sharding section of a sharded report.
fn sharding(report: &RunReport) -> &DistReport {
    report.sharding.as_ref().expect("a sharded walk reports its sharding")
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// A 32q depth-20 RQC on 8 GCDs under eager serialized, lookahead
/// serialized and lookahead overlapped exchange.
fn scheduling(opts: &Opts) -> [RunReport; 3] {
    let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(32, 20, 77)), 4);
    let serialized = DistOptions { policy: SwapPolicy::Lookahead, overlap: false, chunks: 1 };
    [DistOptions::naive(), serialized, DistOptions::default()]
        .map(|dist| opts.row("", 8, dist).report(&fused))
}

/// The full study (tables on stdout, the strong-scaling CSV).
pub fn bench(opts: &Opts) -> Outcome {
    let (flavor, precision) = (opts.flavor.label(), opts.precision.name());
    println!("multi-GCD strong scaling: RQC n=30, {flavor} flavor, {precision} precision\n");
    let mut rows = opts.strong_rows();
    // A Frontier-node topology row: bit-0 pairs share a package, higher
    // bits cross the node fabric.
    if opts.topology.is_none() && opts.max_devices >= 4 {
        let frontier = Opts { topology: Some(Topology::frontier_node()), ..*opts };
        rows.push(frontier.row("4 GCDs (Frontier 2-level fabric)", 4, DistOptions::default()));
    }
    let sweep = paper_sweep();
    let series = evaluate(&rows, &sweep);
    print!("{}", render_table("execution time", "s", &series));
    let f4 = 3;
    println!("\nstrong-scaling efficiency at f=4:");
    let t1 = series[0].values[f4];
    for (row, s) in rows.iter().zip(&series) {
        let (label, t) = (&s.label, s.values[f4]);
        let eff = 100.0 * (t1 / (t * row.devices() as f64));
        println!("  {label:<10} {t:>8.3} s   parallel efficiency {eff:>5.1} %");
    }
    if opts.max_devices >= 4 {
        let r = rows[2].report(&sweep[f4]);
        let serialized = DistOptions { overlap: false, ..DistOptions::default() };
        let serial = opts.row("", 4, serialized).report(&sweep[f4]);
        let s = sharding(&r);
        println!(
            "  at 4 GCDs: {} swaps in {} exchange epochs, {:.2} GiB exchanged per device,\n\
             \x20 {:.3} s of link time ({:.1} % hidden behind compute by overlap)",
            s.swaps,
            s.swap_epochs,
            gib(s.exchanged_bytes_per_device),
            s.exchange_seconds,
            100.0 * (serial.simulated_seconds - r.simulated_seconds)
                / s.exchange_seconds.max(f64::MIN_POSITIVE),
        );
    }
    let outcome = Outcome::files([Csv::series("multi_gcd_strong.csv", &series)]);

    println!("\nmulti-GCD weak scaling: shard fixed at 2^27 amps/device (f=4)\n");
    println!("{:<10} {:>8} {:>12} {:>12}", "GCDs", "qubits", "time (s)", "vs 1 GCD");
    let mut t_base = 0.0;
    for row in opts.strong_rows() {
        let devices = row.devices();
        let n = 27 + devices.trailing_zeros() as usize;
        let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(n, 14, 2023)), 4);
        let t = row.report(&fused).simulated_seconds;
        if devices == 1 {
            t_base = t;
        }
        println!("{devices:<10} {n:>8} {t:>12.3} {:>11.2}x", t / t_base);
    }

    println!("\nmulti-GCD capacity: largest RQC feasible per device count (f=4)\n");
    println!("{:<10} {:>8} {:>14} {:>14}", "GCDs", "qubits", "state (GiB)", "time (s)");
    let capacity = Opts { max_devices: opts.max_devices.max(16), ..*opts };
    for row in capacity.strong_rows() {
        // Scan upward until OOM.
        let mut best: Option<(usize, f64)> = None;
        for n in 30..=qsim_core::statevec::MAX_QUBITS {
            let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(n, 14, 2023)), 4);
            match row.estimate(&fused) {
                Ok(r) => best = Some((n, r.simulated_seconds)),
                Err(BackendError::Gpu(_)) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let (n, t) = best.expect("at least n=30 fits");
        let state = gib((1u64 << n) * opts.precision.amplitude_bytes() as u64);
        println!("{:<10} {n:>8} {state:>14.0} {t:>14.3}", row.devices());
    }

    println!("\nswap scheduling + overlap on a 32q depth-20 RQC (8 GCDs, f=4):\n");
    let [naive, sched, full] = scheduling(opts);
    for (label, r) in [
        ("eager, serialized", &naive),
        ("lookahead, serialized", &sched),
        ("lookahead, overlapped", &full),
    ] {
        let (s, t) = (sharding(r), r.simulated_seconds);
        let (swaps, epochs, bytes) = (s.swaps, s.swap_epochs, gib(s.exchanged_bytes_per_device));
        println!("  {label:<24} {swaps:>5} swaps {epochs:>4} epochs {bytes:>8.2} GiB/dev exchanged {t:>8.3} s");
    }
    let [naive_bytes, sched_bytes] =
        [&naive, &sched].map(|r| sharding(r).exchanged_bytes_per_device);
    let byte_cut = 100.0 * (1.0 - sched_bytes as f64 / naive_bytes as f64);
    let time_cut = 100.0 * (1.0 - full.simulated_seconds / sched.simulated_seconds);
    println!("\n  scheduler: {byte_cut:.1} % fewer exchanged bytes; overlap: {time_cut:.1} % less end-to-end time");
    outcome
}

/// The CI gate: the strong-scaling CSV, and the claims that the speedup
/// is monotone in device count, the scheduler cuts exchanged bytes ≥ 30 %
/// on a 32q depth-20 RQC, overlap beats serialized exchange there, and a
/// 34q RQC fits per device on 8 GCDs. The bounds are for the default
/// hip/single configuration; the flags still steer the CSV.
pub fn ci(opts: &Opts) -> Result<Outcome, String> {
    let rows = opts.strong_rows();
    let series = evaluate(&rows, &paper_sweep());
    let f4 = 3;
    let at_f4: Vec<(&str, f64)> = series.iter().map(|s| (s.label.as_str(), s.values[f4])).collect();
    let monotone = at_f4.windows(2).all(|w| w[1].1 < w[0].1);

    let [naive, sched, full] = scheduling(opts);
    let [naive_bytes, sched_bytes] =
        [&naive, &sched].map(|r| sharding(r).exchanged_bytes_per_device);
    let byte_cut = 1.0 - sched_bytes as f64 / naive_bytes as f64;

    // Capacity: a 34-qubit RQC estimates cleanly on 8 GCDs with the
    // per-device shard below one device's memory.
    let big = fuse(&generate_rqc(&RqcOptions::for_qubits(34, 14, 7)), 4);
    let capacity = opts.row("", 8, DistOptions::default()).estimate(&big);
    let capacity = capacity.map_err(|e| format!("34q estimate: {e}"))?;
    let shard_bytes = capacity.state_bytes / sharding(&capacity).devices as u64;
    let device_memory = opts.flavor.default_spec().memory_bytes;

    let claims = vec![
        Claim::new(
            "strong-scaling speedup monotone in device count",
            "qHiPSTER fig. 7",
            at_f4.iter().map(|(l, t)| format!("{l}: {t:.3}s")).collect::<Vec<_>>().join(", "),
            monotone,
        ),
        Claim::new(
            "lookahead scheduler cuts exchanged bytes >= 30 %",
            "qHiPSTER §4",
            format!(
                "{:.1} % ({:.2} -> {:.2} GiB/dev, {} -> {} swaps)",
                100.0 * byte_cut,
                gib(naive_bytes),
                gib(sched_bytes),
                sharding(&naive).swaps,
                sharding(&sched).swaps
            ),
            byte_cut >= 0.30,
        ),
        Claim::new(
            "overlap beats serialized exchange end-to-end",
            "qHiPSTER §5",
            format!(
                "{:.3} s -> {:.3} s ({:.3} s link time)",
                sched.simulated_seconds,
                full.simulated_seconds,
                sharding(&full).exchange_seconds
            ),
            full.simulated_seconds < sched.simulated_seconds,
        ),
        Claim::new(
            "34q RQC fits per-device on an 8-GCD node",
            "paper §7 (future work)",
            format!(
                "{:.0} GiB shard vs {:.0} GiB device memory",
                gib(shard_bytes),
                gib(device_memory)
            ),
            shard_bytes < device_memory,
        ),
    ];
    Ok(Outcome { artifacts: vec![Csv::series("multi_gcd_strong.csv", &series).artifact()], claims })
}
