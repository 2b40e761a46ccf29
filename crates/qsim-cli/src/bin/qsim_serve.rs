//! `qsim_serve` — the multi-tenant simulation job service.
//!
//! Binds a TCP listener, prints `listening on <addr>` (so scripts can
//! capture an ephemeral port), and speaks the newline-delimited JSON
//! protocol documented in DESIGN.md §"Service layer" until a `shutdown`
//! verb drains the worker pool.

use std::sync::Arc;

use qsim_serve::{MuxServer, Service, ServiceConfig, DEFAULT_IO_THREADS};

const USAGE: &str = "\
usage: qsim_serve [options]
  --host HOST       bind address (default 127.0.0.1)
  --port PORT       bind port; 0 picks an ephemeral port (default 0)
  --workers N       worker threads (default 4)
  --io-threads N    multiplexed I/O threads serving the connections (many
                    nonblocking connections per thread, streamed sample
                    frames) (default 4)
  --budget-gib GIB  state-memory admission budget in GiB (default 16)
  --cache-budget MIB
                    result-cache budget in MiB, charged against the
                    admission ledger; repeat submissions of an identical
                    job return Done from cache. 0 disables (default 2048)
  --plan-cache-budget MIB
                    budget in MiB of the fusion-plan cache, and separately
                    of the circuit table (each distinct submitted text
                    parsed once); 0 disables both (default 32)
  --bandwidth-gib GIB/S
                    modeled memory-bandwidth dispatch budget in GiB/s
                    (default 400; caps the aggregate streaming rate of
                    concurrently running jobs)
  --max-batch N     max Batch-class jobs gang-scheduled through one
                    run_batch sweep; 1 disables coalescing (default 16)
  --pool-cap N      max pooled buffers per size bucket (default 8)
  -h, --help        show this help";

struct Args {
    host: String,
    port: u16,
    io_threads: usize,
    config: ServiceConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        host: "127.0.0.1".into(),
        port: 0,
        io_threads: DEFAULT_IO_THREADS,
        config: ServiceConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => return Err(USAGE.into()),
            "--host" => args.host = take(&mut it, flag)?.clone(),
            "--port" => {
                args.port = take(&mut it, flag)?.parse().map_err(|e| format!("bad --port: {e}"))?;
            }
            "--workers" => {
                let n: usize =
                    take(&mut it, flag)?.parse().map_err(|e| format!("bad --workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.config.workers = n;
            }
            "--io-threads" => {
                args.io_threads =
                    take(&mut it, flag)?.parse().map_err(|e| format!("bad --io-threads: {e}"))?;
                if args.io_threads == 0 {
                    return Err("--io-threads must be at least 1".into());
                }
            }
            "--cache-budget" => {
                args.config.result_cache_budget_bytes = take_bytes(&mut it, flag, MIB)?;
            }
            "--plan-cache-budget" => {
                args.config.plan_cache_budget_bytes = take_bytes(&mut it, flag, MIB)?;
            }
            "--budget-gib" => args.config.memory_budget_bytes = take_bytes(&mut it, flag, GIB)?,
            "--bandwidth-gib" => {
                args.config.bandwidth_budget_bps = take_bytes(&mut it, flag, GIB)?;
                if args.config.bandwidth_budget_bps == 0 {
                    return Err("--bandwidth-gib must be at least 1".into());
                }
            }
            "--max-batch" => {
                let n: usize =
                    take(&mut it, flag)?.parse().map_err(|e| format!("bad --max-batch: {e}"))?;
                if n == 0 {
                    return Err("--max-batch must be at least 1".into());
                }
                args.config.max_batch = n;
            }
            "--pool-cap" => {
                args.config.pool_max_per_bucket =
                    take(&mut it, flag)?.parse().map_err(|e| format!("bad --pool-cap: {e}"))?;
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn take<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// The value of a size flag given in units of `unit` bytes, as bytes. A
/// count too large for 64 bits is refused: wrapping would start the
/// service with a budget near zero instead of the huge one asked for.
fn take_bytes(it: &mut std::slice::Iter<'_, String>, flag: &str, unit: u64) -> Result<u64, String> {
    let count: u64 = take(it, flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    count.checked_mul(unit).ok_or_else(|| format!("bad {flag}: {count} does not fit in 64 bits"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let service = Arc::new(Service::start(args.config));
    let bind_addr = format!("{}:{}", args.host, args.port);
    let server = match MuxServer::bind(&bind_addr, service, args.io_threads) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qsim_serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts parse this line to learn the ephemeral port; keep
            // the format stable.
            println!("listening on {addr}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("qsim_serve: no local address: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("qsim_serve: {e}");
        std::process::exit(1);
    }
    println!("drained, exiting");
}
