//! `qsim_bench <suite> [flags]`: regenerate one of the paper's tables or
//! figures, or run a study or load test beyond them (see the crate doc).
//! The suite hands back its files and claims; this writes the files,
//! prints the claims, and exits 1 if one missed or the run failed, 2 on a
//! usage error.

use std::process::exit;

use qsim_bench::multi_gcd::{self, Opts};
use qsim_bench::{figures, render_claims, serve, Outcome};

const USAGE: &str = "\
usage: qsim_bench <suite> [flags]

suites:
    table1                            Table 1: hardware and software setup
    fig7 [--validate N]               Figure 7: CPU vs MI250X over the fusion sweep;
                                      --validate N also runs both for real at N qubits
    fig8                              Figure 8: single vs double precision (HIP)
    fig9                              Figure 9: CUDA / cuStateVec / HIP
    trace [--functional N] [-o FILE]  Figures 1 and 6: Perfetto trace of the HIP run
                                      (default results/trace_fig1.json); --functional N
                                      traces a real run at N qubits
    ablations                         model ablations beyond the paper
    multi-gcd [ci] [options]          multi-GCD scaling study; ci checks its claims
        --flavor NAME                 cpu | cuda | custatevec | hip (default hip)
        --precision NAME              single | double (default single)
        --devices N                   largest device count, a power of two <= 64
                                      (default 8)
        --topology NAME               in-package | node | nvlink | frontier
                                      (default: the flavor's native uniform link)
    serve smoke --addr HOST:PORT      drive a running qsim_serve (CI smoke)
    serve throughput                  jobs/s and latency vs worker count
    serve batched [--jobs N]          gang-coalescing saturation run (default 10000 jobs)
    serve ci                          batched-beats-unbatched and worker-scaling gate
    serve mux [ci]                    connection scaling over the mux front end";

/// Why a run stopped short.
enum Stop {
    Usage(String),
    Failed(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Failed(message)
    }
}

/// A positive count for `flag`.
fn count(flag: &str, value: &str) -> Result<usize, Stop> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(Stop::Usage(format!("{flag} needs a positive integer, got '{value}'"))),
    }
}

fn run(args: &[&str]) -> Result<Outcome, Stop> {
    let multi_gcd_opts = |flags| Opts::parse(flags).map_err(Stop::Usage);
    Ok(match args {
        ["table1"] => figures::table1(),
        ["fig7"] => figures::fig7(None)?,
        ["fig7", "--validate", n] => figures::fig7(Some(count("--validate", n)?))?,
        ["fig8"] => figures::fig8()?,
        ["fig9"] => figures::fig9(),
        ["ablations"] => figures::ablations(),
        ["trace", flags @ ..] => {
            let (mut functional, mut out) = (None, "results/trace_fig1.json");
            for pair in flags.chunks(2) {
                match *pair {
                    ["--functional", n] => functional = Some(count("--functional", n)?),
                    ["-o", file] => out = file,
                    _ => return Err(Stop::Usage(format!("bad trace flags {flags:?}"))),
                }
            }
            figures::trace(functional, out)?
        }
        ["multi-gcd", "ci", flags @ ..] => multi_gcd::ci(&multi_gcd_opts(flags)?)?,
        ["multi-gcd", flags @ ..] => multi_gcd::bench(&multi_gcd_opts(flags)?),
        ["serve", "smoke", "--addr", addr] => serve::smoke(addr)?,
        ["serve", "throughput"] => serve::throughput()?,
        ["serve", "batched"] => serve::batched(serve::BATCHED_JOBS)?,
        ["serve", "batched", "--jobs", n] => serve::batched(count("--jobs", n)?)?,
        ["serve", "ci"] => serve::ci()?,
        ["serve", "mux"] => serve::mux(false)?,
        ["serve", "mux", "ci"] => serve::mux(true)?,
        [] => return Err(Stop::Usage("no suite given".into())),
        _ => return Err(Stop::Usage(format!("unknown suite or flags: {}", args.join(" ")))),
    })
}

/// Write the suite's files and check its claims: the one tail every suite
/// ends in.
fn finish(outcome: Outcome) -> Result<(), String> {
    for (path, bytes) in &outcome.artifacts {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if outcome.claims.is_empty() {
        return Ok(());
    }
    print!("{}", render_claims(&outcome.claims));
    let missed = outcome.claims.iter().filter(|c| !c.holds).count();
    if missed > 0 {
        return Err(format!("{missed} claim(s) missed — see EXPERIMENTS.md for discussion"));
    }
    println!("\nall claims hold.");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    if args.iter().any(|a| matches!(*a, "-h" | "--help")) {
        println!("{USAGE}");
        return;
    }
    let (code, message) = match run(&args).and_then(|outcome| Ok(finish(outcome)?)) {
        Ok(()) => return,
        Err(Stop::Usage(message)) => (2, format!("{message}\n{USAGE}")),
        Err(Stop::Failed(message)) => (1, message),
    };
    eprintln!("qsim_bench: {message}");
    exit(code);
}
