//! `qsim-benchmark`: one reproducible harness for the `qsim_base` path
//! and the `qsim_serve` path. See `benchmark/README.md`.
//!
//! ```text
//! qsim-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1]
//!     run one workload in this process; the last line of standard
//!     output is the result object `BENCHMARK.json` describes
//! qsim-benchmark run [--seed S] [--seconds N] [--traced]
//!     run every workload, each in a child process of its own
//! qsim-benchmark agree [--seconds N]
//!     run the suite twice (seeds 2023 and 7 each) and compare the two
//!     sets of runs with the benchmark's own bounds
//! ```

mod env;
mod inputs;
mod metrics;
mod spans;
mod stats;
mod suite;
mod workloads;

use workloads::{RunArgs, DEFAULT_SEED, RUN_SECONDS};

const USAGE: &str = "\
usage: qsim-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1]
       qsim-benchmark run [--seed S] [--seconds N] [--traced]
       qsim-benchmark agree [--seconds N]";

/// Parsed command line.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--traced" => cli.traced = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(cli)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse(&argv[1..]).and_then(|cli| {
            let seed = cli.seed.unwrap_or(DEFAULT_SEED);
            let seconds = cli.seconds.unwrap_or(RUN_SECONDS as f64);
            match &cli.workload {
                Some(name) => run_one(name, &RunArgs { seed, seconds, traced: cli.trace }),
                None => suite::run_all(seed, seconds, cli.traced),
            }
        }),
        Some("agree") => parse(&argv[1..]).and_then(|cli| {
            if cli.workload.is_some() || cli.seed.is_some() || cli.trace || cli.traced {
                return Err("agree takes only --seconds".into());
            }
            suite::agree(cli.seconds.unwrap_or(RUN_SECONDS as f64))
        }),
        _ => Err(USAGE.to_string()),
    };
    if let Err(message) = result {
        eprintln!("qsim-benchmark: {message}");
        std::process::exit(2);
    }
}

/// Run one workload in this process and print its table and result line.
fn run_one(name: &str, args: &RunArgs) -> Result<(), String> {
    let defs = metrics::table(args.traced);
    match env::pin_to_one_cpu() {
        Some(cpu) => println!("measuring on cpu {cpu} alone"),
        None => println!("note: cannot confine the run to one cpu; numbers will be noisier"),
    }
    let outcome = workloads::run(name, args)?;
    print!("{}", outcome.render(name, defs));
    println!("{}", outcome.result_line(defs));
    Ok(())
}
