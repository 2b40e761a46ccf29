//! `serve_load` — load generator for the qsim-serve job service.
//!
//! Two modes:
//!
//! - `serve_load smoke --addr HOST:PORT` drives a **running** `qsim_serve`
//!   process over TCP: 32 mixed-size jobs including one forced timeout and
//!   one cancellation, asserts every job reaches the expected terminal
//!   state, checks the `metrics` aggregation and that the idle server's
//!   I/O threads stay blocked in `poll`, and shuts the server down
//!   gracefully. Exits non-zero on any violation — this is the CI
//!   serve-smoke job.
//!
//! - `serve_load bench` measures in-process service throughput: jobs/sec,
//!   buffer-pool hit rate and p50/p99 submit→terminal latency versus
//!   worker count at 20 and 24 qubits, written to
//!   `results/serve_throughput.csv`. The cold vs warm setup columns
//!   quantify what the buffer pool saves per job.
//!
//! - `serve_load batched [--jobs N]` is the small-circuit saturation
//!   benchmark: N (default 10 000) hash-equal 6-qubit QFT Batch-class
//!   jobs driven through the service twice — once with gang coalescing
//!   disabled (`max_batch = 1`) and once enabled — and the two
//!   throughputs written to `results/serve_batched.csv`. Each cell is
//!   the best of three runs to shave scheduler noise.
//!
//! - `serve_load mux [ci]` is the connection-scaling benchmark for the
//!   multiplexed front end: a repeat-heavy workload (8 distinct circuits
//!   resubmitted verbatim) driven at 64 and 1000 concurrent sockets from
//!   a single-threaded nonblocking client loop, with the result cache on
//!   and off, written to `results/serve_mux.csv`. With `ci` it is a
//!   gate: the 1000-client hit rate must be ≥ 0.9, and the cached p50
//!   must sit ≥ 5× below the uncached p50.
//!
//! - `serve_load ci` is the CI gate: a quick batched-vs-unbatched run
//!   (writing `results/serve_batched.csv`, batched must win) plus a
//!   scaling check at 20 qubits on the batched path — jobs/sec must
//!   grow monotonically 1 → 2 → 4 workers; hosts with fewer than 4
//!   cores, where there is no parallel speedup to observe, skip it.
//!   Exits non-zero on any violation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsim_backends::Flavor;
use qsim_circuit::library;
use qsim_serve::{JobId, JobSpec, JobState, Priority, Service, ServiceConfig, DEFAULT_MAX_BATCH};
use serde_json::{json, Value};

const USAGE: &str = "\
usage: serve_load smoke --addr HOST:PORT
       serve_load bench
       serve_load batched [--jobs N]
       serve_load ci
       serve_load mux [ci]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("smoke") => match argv.iter().position(|a| a == "--addr") {
            Some(i) => match argv.get(i + 1) {
                Some(addr) => smoke(addr),
                None => Err("--addr needs a value".into()),
            },
            None => Err("smoke mode needs --addr HOST:PORT".into()),
        },
        Some("bench") => bench(),
        Some("batched") => {
            let jobs = match argv.iter().position(|a| a == "--jobs") {
                Some(i) => match argv.get(i + 1).map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => return fail("--jobs needs a positive integer"),
                },
                None => BATCHED_JOBS,
            };
            batched(jobs).map(|_| ())
        }
        Some("ci") => ci(),
        Some("mux") => mux_bench(argv.get(1).map(String::as_str) == Some("ci")),
        _ => Err(USAGE.into()),
    };
    if let Err(message) = result {
        eprintln!("serve_load: {message}");
        std::process::exit(1);
    }
}

fn fail(message: &str) {
    eprintln!("serve_load: {message}");
    std::process::exit(1);
}

// ---------------------------------------------------------------- smoke

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        Ok(Client { writer: stream, reader })
    }

    fn request(&mut self, body: &Value) -> Result<Value, String> {
        let mut line = serde_json::to_string(body).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader.read_line(&mut response).map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(&response).map_err(|e| format!("bad response JSON: {e}"))
    }
}

fn expect_ok(resp: &Value, what: &str) -> Result<(), String> {
    if resp.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("{what} failed: {resp:?}"))
    }
}

fn smoke(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    println!("connected to {addr}");

    // 32 mixed-size jobs. Job 0 carries an already-expired deadline (the
    // forced timeout); one mid-queue job is cancelled right after the
    // batch is submitted.
    let mut ids = Vec::new();
    let mut timeout_id = 0;
    let mut cancel_id = 0;
    for i in 0..32u64 {
        let qubits = 8 + (i as usize % 9); // 8..=16
        let circuit = qsim_circuit::parser::write_circuit(&library::ghz(qubits));
        let mut req = json!({
            "verb": "submit",
            "circuit": (circuit),
            "backend": (if i % 2 == 0 { "cpu" } else { "hip" }),
            "seed": (i),
            "priority": (["high", "normal", "batch"][(i % 3) as usize]),
        });
        if i == 0 {
            req = json!({
                "verb": "submit",
                "circuit": (circuit),
                "timeout_ms": 0,
            });
        } else if i == 20 {
            // The cancellation target: batch priority, so it sits at the
            // back of the queue while the cancel lands.
            req = json!({
                "verb": "submit",
                "circuit": (circuit),
                "priority": "batch",
            });
        }
        let resp = client.request(&req)?;
        expect_ok(&resp, "submit")?;
        let id = resp.get("id").and_then(Value::as_u64).ok_or("submit response lacks id")?;
        if i == 0 {
            timeout_id = id;
        }
        if i == 20 {
            cancel_id = id;
            let resp = client.request(&json!({ "verb": "cancel", "id": (id) }))?;
            expect_ok(&resp, "cancel")?;
        }
        ids.push(id);
    }
    println!("submitted {} jobs (timeout: job {timeout_id}, cancel: job {cancel_id})", ids.len());

    // Poll until every job is terminal.
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut states = vec![String::new(); ids.len()];
    loop {
        let mut pending = 0;
        for (slot, id) in states.iter_mut().zip(&ids) {
            let resp = client.request(&json!({ "verb": "status", "id": (id) }))?;
            expect_ok(&resp, "status")?;
            let state = resp.get("state").and_then(Value::as_str).ok_or("status lacks state")?;
            *slot = state.to_string();
            if state == "queued" || state == "running" {
                pending += 1;
            }
        }
        if pending == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("{pending} jobs still pending at deadline: {states:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Terminal-state assertions.
    if states[0] != "timed_out" {
        return Err(format!("job {timeout_id} should have timed out, got '{}'", states[0]));
    }
    let cancel_state = &states[20];
    if cancel_state != "cancelled" && cancel_state != "done" {
        return Err(format!("job {cancel_id} should be cancelled (or done), got '{cancel_state}'"));
    }
    for (i, state) in states.iter().enumerate() {
        if i != 0 && i != 20 && state != "done" {
            return Err(format!("job {} should be done, got '{state}'", ids[i]));
        }
    }
    println!(
        "all {} jobs terminal ({} done, 1 timed_out, job 20 {cancel_state})",
        ids.len(),
        states.iter().filter(|s| *s == "done").count()
    );

    // Completed jobs must serve their reports.
    let resp = client.request(&json!({ "verb": "result", "id": (ids[1]) }))?;
    expect_ok(&resp, "result")?;
    if resp.get("report").and_then(|r| r.get("wall_seconds")).is_none() {
        return Err(format!("result lacks a report: {resp:?}"));
    }

    // Metrics must agree with what we drove.
    let resp = client.request(&json!({ "verb": "metrics" }))?;
    expect_ok(&resp, "metrics")?;
    let metrics = resp.get("metrics").ok_or("metrics verb lacks payload")?;
    let jobs = metrics.get("jobs").ok_or("metrics lacks jobs")?;
    let completed = jobs.get("completed").and_then(Value::as_u64).unwrap_or(0);
    let timed_out = jobs.get("timed_out").and_then(Value::as_u64).unwrap_or(0);
    if completed + timed_out + jobs.get("cancelled").and_then(Value::as_u64).unwrap_or(0)
        != ids.len() as u64
    {
        return Err(format!("metrics don't add up to {} jobs: {metrics:?}", ids.len()));
    }
    let pool = metrics.get("buffer_pool").ok_or("metrics lacks buffer_pool")?;
    let hits = pool.get("hits").and_then(Value::as_u64).unwrap_or(0);
    if hits == 0 {
        return Err("32 same-shaped jobs produced zero pool hits".into());
    }
    println!("metrics: {completed} completed, {timed_out} timed out, {hits} pool hits");

    // An idle server's I/O threads block in `poll(2)`: over half a second
    // with nothing in flight, the one return is the one that delivers the
    // second `metrics` request itself.
    let mut polls = || -> Result<u64, String> {
        let resp = client.request(&json!({ "verb": "metrics" }))?;
        let io = resp.get("metrics").and_then(|m| m.get("io"));
        io.and_then(|io| io.get("polls").and_then(Value::as_u64))
            .ok_or_else(|| format!("metrics lacks io.polls: {resp:?}"))
    };
    let before = polls()?;
    std::thread::sleep(Duration::from_millis(500));
    let idle = polls()?.saturating_sub(before).saturating_sub(1);
    if idle > 0 {
        return Err(format!("an idle server's I/O threads returned from poll {idle} times"));
    }
    println!("idle: 0 polls in 500 ms");

    // Graceful shutdown: the server acknowledges, drains and exits.
    let resp = client.request(&json!({ "verb": "shutdown" }))?;
    expect_ok(&resp, "shutdown")?;
    println!("smoke OK");
    Ok(())
}

// ---------------------------------------------------------------- bench

const JOBS_PER_CELL: usize = 48;

fn bench() -> Result<(), String> {
    let mut csv = String::from(
        "workers,qubits,jobs,total_seconds,jobs_per_sec,pool_hit_rate,\
         latency_p50_s,latency_p99_s,cold_setup_avg_s,warm_setup_avg_s,setup_speedup\n",
    );
    println!(
        "{:>7} {:>6} {:>9} {:>9} {:>8} {:>9} {:>9} {:>14} {:>14} {:>8}",
        "workers",
        "qubits",
        "total_s",
        "jobs/s",
        "hit_rate",
        "p50_s",
        "p99_s",
        "cold_setup_s",
        "warm_setup_s",
        "speedup"
    );
    for &qubits in &[20usize, 24] {
        for &workers in &[1usize, 2, 4, 8] {
            let row = bench_cell(workers, qubits)?;
            println!(
                "{:>7} {:>6} {:>9.3} {:>9.2} {:>8.2} {:>9.4} {:>9.4} {:>14.6} {:>14.6} {:>8.2}",
                workers,
                qubits,
                row.total_seconds,
                row.jobs_per_sec,
                row.hit_rate,
                row.latency_p50,
                row.latency_p99,
                row.cold_setup,
                row.warm_setup,
                row.speedup()
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                workers,
                qubits,
                JOBS_PER_CELL,
                row.total_seconds,
                row.jobs_per_sec,
                row.hit_rate,
                row.latency_p50,
                row.latency_p99,
                row.cold_setup,
                row.warm_setup,
                row.speedup()
            ));
        }
    }
    std::fs::create_dir_all("results").map_err(|e| format!("mkdir results: {e}"))?;
    let path = "results/serve_throughput.csv";
    std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

struct Cell {
    total_seconds: f64,
    jobs_per_sec: f64,
    hit_rate: f64,
    latency_p50: f64,
    latency_p99: f64,
    cold_setup: f64,
    warm_setup: f64,
}

impl Cell {
    /// Cold over warm per-job setup time — what one warm buffer is worth.
    fn speedup(&self) -> f64 {
        if self.warm_setup > 0.0 {
            self.cold_setup / self.warm_setup
        } else {
            0.0
        }
    }
}

/// Nearest-rank percentile of a sorted slice of seconds.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn bench_cell(workers: usize, qubits: usize) -> Result<Cell, String> {
    let service = Service::start(ServiceConfig { workers, ..ServiceConfig::default() });
    let circuit = library::ghz(qubits);
    let start = Instant::now();
    let mut ids = Vec::with_capacity(JOBS_PER_CELL);
    let mut submitted_at = Vec::with_capacity(JOBS_PER_CELL);
    for i in 0..JOBS_PER_CELL {
        let mut spec = JobSpec::new(circuit.clone());
        spec.seed = i as u64;
        ids.push(service.submit(spec).map_err(|e| format!("submit: {e}"))?);
        submitted_at.push(Instant::now());
    }
    let latencies = drain(&service, &ids, &submitted_at)?;
    let total_seconds = start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    service.shutdown();
    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    Ok(Cell {
        total_seconds,
        jobs_per_sec: JOBS_PER_CELL as f64 / total_seconds,
        hit_rate: metrics.pool.hit_rate(),
        latency_p50: percentile(&sorted, 0.50),
        latency_p99: percentile(&sorted, 0.99),
        cold_setup: metrics.cold_setup_seconds_avg,
        warm_setup: metrics.warm_setup_seconds_avg,
    })
}

/// Poll every job to a terminal state, recording each one's
/// submit→terminal latency (observed at poll granularity). Fails if any
/// job ends in a state other than `Done`.
fn drain(service: &Service, ids: &[JobId], submitted_at: &[Instant]) -> Result<Vec<f64>, String> {
    let mut latency: Vec<Option<f64>> = vec![None; ids.len()];
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let mut pending = 0usize;
        for (i, id) in ids.iter().enumerate() {
            if latency[i].is_some() {
                continue;
            }
            let status = service.status(*id).ok_or_else(|| format!("job {id} vanished"))?;
            if status.state.is_terminal() {
                if status.state != JobState::Done {
                    return Err(format!("job {id} ended {:?}: {:?}", status.state, status.error));
                }
                latency[i] = Some(submitted_at[i].elapsed().as_secs_f64());
            } else {
                pending += 1;
            }
        }
        if pending == 0 {
            return Ok(latency.into_iter().map(|l| l.unwrap_or(0.0)).collect());
        }
        if Instant::now() > deadline {
            return Err(format!("{pending} jobs still pending at deadline"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

// -------------------------------------------------------------- batched

/// Default job count for the small-circuit saturation benchmark.
const BATCHED_JOBS: usize = 10_000;
/// Small enough that per-job fixed costs (gate-plan analysis, matrix
/// conversion, sweep/SIMD plan construction) dominate over the O(2^n)
/// amplitude arithmetic — the regime gang coalescing targets. The jobs
/// run on the host `cpu` flavor, where the sweep planner's run
/// formation is computed once per gang instead of once per job; QFT
/// gives O(n²) gates per circuit so there is enough planning work per
/// job for the amortization to matter.
const BATCHED_QUBITS: usize = 6;
/// Concurrent submitter threads, so submission keeps the queue saturated
/// instead of rate-limiting the workers.
const SUBMITTERS: usize = 2;
/// Jobs per `submit_many` call — one registry/queue lock round per slice.
const SUBMIT_CHUNK: usize = 128;
/// Gang width for the coalesced side of the comparison: wide enough that
/// the per-gang fixed cost (analysis, matrix conversion, sweep-plan
/// construction) is fully amortized.
const BATCHED_MAX_BATCH: usize = 64;

struct BatchCell {
    total_seconds: f64,
    submit_seconds: f64,
    jobs_per_sec: f64,
    batches: u64,
    occupancy: f64,
    hit_rate: f64,
}

/// Runs per cell; the best (highest jobs/sec) run is reported, which
/// strips most of the scheduler noise a loaded host injects.
const BATCHED_RUNS: usize = 3;

fn best_cell(workers: usize, jobs: usize, max_batch: usize) -> Result<BatchCell, String> {
    let mut best: Option<BatchCell> = None;
    for _ in 0..BATCHED_RUNS {
        let cell = batched_cell(workers, jobs, max_batch)?;
        if best.as_ref().is_none_or(|b| cell.jobs_per_sec > b.jobs_per_sec) {
            best = Some(cell);
        }
    }
    Ok(best.expect("BATCHED_RUNS > 0"))
}

fn batched(jobs: usize) -> Result<f64, String> {
    let workers = 8;
    println!("saturation: {jobs} × qft({BATCHED_QUBITS}) cpu Batch-class jobs, {workers} workers");
    let unbatched = best_cell(workers, jobs, 1)?;
    println!(
        "  unbatched (max_batch=1):  {:>8.2} jobs/s  ({:.3}s total, {:.3}s submit, hit_rate {:.2})",
        unbatched.jobs_per_sec,
        unbatched.total_seconds,
        unbatched.submit_seconds,
        unbatched.hit_rate
    );
    let coalesced = best_cell(workers, jobs, BATCHED_MAX_BATCH)?;
    println!(
        "  batched (max_batch={}):  {:>8.2} jobs/s  ({:.3}s total, {:.3}s submit, {} gangs, avg width {:.1})",
        BATCHED_MAX_BATCH,
        coalesced.jobs_per_sec,
        coalesced.total_seconds,
        coalesced.submit_seconds,
        coalesced.batches,
        coalesced.occupancy
    );
    let speedup = coalesced.jobs_per_sec / unbatched.jobs_per_sec;
    println!("  batched speedup: {speedup:.2}x");

    let mut csv = String::from(
        "mode,max_batch,workers,qubits,jobs,total_seconds,jobs_per_sec,\
         batches,batch_occupancy_avg,pool_hit_rate\n",
    );
    for (mode, max_batch, cell) in
        [("unbatched", 1, &unbatched), ("batched", BATCHED_MAX_BATCH, &coalesced)]
    {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            mode,
            max_batch,
            workers,
            BATCHED_QUBITS,
            jobs,
            cell.total_seconds,
            cell.jobs_per_sec,
            cell.batches,
            cell.occupancy,
            cell.hit_rate
        ));
    }
    std::fs::create_dir_all("results").map_err(|e| format!("mkdir results: {e}"))?;
    let path = "results/serve_batched.csv";
    std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(speedup)
}

/// One saturation run: `jobs` hash-equal Batch-class QFT circuits pushed
/// by `SUBMITTERS` threads, drained by `workers` workers with the given
/// gang width. Returns end-to-end throughput (first submit → last
/// terminal state).
fn batched_cell(workers: usize, jobs: usize, max_batch: usize) -> Result<BatchCell, String> {
    let service = Arc::new(Service::start(ServiceConfig {
        workers,
        max_batch,
        // Both modes get a pool deep enough for the widest mode's
        // in-flight buffers (workers × gang width), so the comparison
        // isolates dispatch, not eviction churn.
        pool_max_per_bucket: workers * DEFAULT_MAX_BATCH,
        ..ServiceConfig::default()
    }));
    let circuit = library::qft(BATCHED_QUBITS);
    let start = Instant::now();
    let per_thread = jobs.div_ceil(SUBMITTERS);
    let ids: Vec<JobId> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = Arc::clone(&service);
                let circuit = circuit.clone();
                let count = per_thread.min(jobs.saturating_sub(t * per_thread));
                scope.spawn(move || -> Result<Vec<JobId>, String> {
                    // Bulk submission in slices: one registry/queue lock
                    // round per slice, exactly how a saturation client
                    // would feed a batch service.
                    let mut ids = Vec::with_capacity(count);
                    for chunk_start in (0..count).step_by(SUBMIT_CHUNK) {
                        let chunk = SUBMIT_CHUNK.min(count - chunk_start);
                        let specs = (0..chunk).map(|i| {
                            let mut spec = JobSpec::new(circuit.clone());
                            spec.flavor = Flavor::CpuAvx;
                            spec.priority = Priority::Batch;
                            spec.seed = (t * per_thread + chunk_start + i) as u64;
                            spec
                        });
                        for r in service.submit_many(specs) {
                            ids.push(r.map_err(|e| format!("submit: {e}"))?);
                        }
                    }
                    Ok(ids)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect::<Result<Vec<_>, String>>()
            .map(|chunks| chunks.concat())
    })?;
    let submit_seconds = start.elapsed().as_secs_f64();
    for id in &ids {
        let status = service
            .wait(*id, Duration::from_secs(600))
            .ok_or_else(|| format!("job {id} vanished"))?;
        if status.state != JobState::Done {
            return Err(format!("job {id} ended {:?}: {:?}", status.state, status.error));
        }
    }
    let total_seconds = start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    service.shutdown();
    Ok(BatchCell {
        total_seconds,
        submit_seconds,
        jobs_per_sec: ids.len() as f64 / total_seconds,
        batches: metrics.batches,
        occupancy: metrics.batch_occupancy_avg(),
        hit_rate: metrics.pool.hit_rate(),
    })
}

// ------------------------------------------------------------------ mux

/// Distinct circuits in the repeat-heavy workload; every client request
/// resubmits one of these verbatim (same seed, same shot count), which
/// is exactly the result cache's hit case.
const MUX_CIRCUITS: usize = 8;
/// Shots per job — enough that the report carries a real sample payload
/// through the cache.
const MUX_SAMPLES: usize = 32;
/// I/O threads for the multiplexed cells.
const MUX_IO_THREADS: usize = 4;
/// Requests per client at the 64-client comparison scale.
const MUX_REQUESTS_SMALL: usize = 4;
/// Requests per client at the 1000-client scale.
const MUX_REQUESTS_LARGE: usize = 2;
/// Client-side status-poll backoff (the cached path answers on the first
/// poll; this only throttles the uncached cells).
const MUX_POLL_BACKOFF: Duration = Duration::from_millis(10);

/// The repeat-heavy circuit set: ghz(11)..=ghz(18).
fn mux_circuits() -> Vec<String> {
    (0..MUX_CIRCUITS).map(|i| qsim_circuit::parser::write_circuit(&library::ghz(11 + i))).collect()
}

#[derive(Debug)]
struct MuxCell {
    clients: usize,
    cached: bool,
    requests: usize,
    hit_rate: f64,
    jobs_per_sec: f64,
    p50_s: f64,
    p99_s: f64,
}

/// Connection-scaling benchmark for the multiplexed front end, and the
/// `mux ci` gate. Three cells, all on the same repeat-heavy workload:
///
/// - 64 clients, cache on — the small case.
/// - 1000 clients, cache on — the headline cell: one process, four I/O
///   threads, a thousand live sockets; hit rate must be ≥ 0.9.
/// - 1000 clients, cache off — the same workload recomputed every
///   time; its p50 must be ≥ 5× the cached p50.
///
/// Writes `results/serve_mux.csv`; in ci mode any violated bound exits
/// non-zero.
fn mux_bench(ci: bool) -> Result<(), String> {
    println!(
        "mux: repeat-heavy workload, {MUX_CIRCUITS} distinct ghz circuits × {MUX_SAMPLES} shots"
    );
    let mux64 = mux_cell(64, true, MUX_REQUESTS_SMALL)?;
    let mux1k = mux_cell(1000, true, MUX_REQUESTS_LARGE)?;
    let mux1k_cold = mux_cell(1000, false, MUX_REQUESTS_LARGE)?;

    let mut csv =
        String::from("clients,io_threads,cache,requests,hit_rate,jobs_per_sec,p50_s,p99_s\n");
    println!(
        "{:>8} {:>11} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "clients", "io_threads", "cache", "requests", "hit_rate", "jobs/s", "p50_s", "p99_s"
    );
    for cell in [&mux64, &mux1k, &mux1k_cold] {
        println!(
            "{:>8} {:>11} {:>6} {:>9} {:>9.3} {:>9.1} {:>9.4} {:>9.4}",
            cell.clients,
            MUX_IO_THREADS,
            if cell.cached { "on" } else { "off" },
            cell.requests,
            cell.hit_rate,
            cell.jobs_per_sec,
            cell.p50_s,
            cell.p99_s
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            cell.clients,
            MUX_IO_THREADS,
            if cell.cached { "on" } else { "off" },
            cell.requests,
            cell.hit_rate,
            cell.jobs_per_sec,
            cell.p50_s,
            cell.p99_s
        ));
    }
    std::fs::create_dir_all("results").map_err(|e| format!("mkdir results: {e}"))?;
    let path = "results/serve_mux.csv";
    std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");

    if ci {
        if mux1k.hit_rate < 0.9 {
            return Err(format!(
                "repeat-heavy hit rate at 1000 clients is {:.3}, want >= 0.9",
                mux1k.hit_rate
            ));
        }
        if mux1k.p50_s * 5.0 > mux1k_cold.p50_s {
            return Err(format!(
                "cached p50 {:.4}s is not >= 5x below uncached p50 {:.4}s at 1000 clients",
                mux1k.p50_s, mux1k_cold.p50_s
            ));
        }
        println!(
            "mux ci OK: hit_rate {:.3}, cached p50 {:.1}x below uncached",
            mux1k.hit_rate,
            mux1k_cold.p50_s / mux1k.p50_s
        );
    }
    Ok(())
}

/// One cell: start a service and its front end, warm the plan cache — and
/// the result cache when it is on — with one in-process run of each
/// circuit, then drive `clients` concurrent sockets from a
/// single-threaded nonblocking event loop, each submitting
/// `requests_per_client` repeat jobs and polling each to `done`.
fn mux_cell(clients: usize, cached: bool, requests_per_client: usize) -> Result<MuxCell, String> {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        result_cache_budget_bytes: if cached { qsim_serve::DEFAULT_RESULT_CACHE_BUDGET } else { 0 },
        ..ServiceConfig::default()
    }));
    let circuits = mux_circuits();
    // Warm: one real run per circuit, so the cached cells measure pure
    // hit-path latency and the uncached cells still reuse fusion plans.
    let warm_ids: Vec<JobId> = circuits
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let circuit = qsim_circuit::parser::parse_circuit(text)
                .map_err(|e| format!("parse warm circuit: {e:?}"))?;
            let mut spec = JobSpec::new(circuit);
            spec.seed = i as u64;
            spec.sample_count = MUX_SAMPLES;
            service.submit(spec).map_err(|e| format!("warm submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for id in &warm_ids {
        let status = service
            .wait(*id, Duration::from_secs(600))
            .ok_or_else(|| format!("warm job {id} vanished"))?;
        if status.state != JobState::Done {
            return Err(format!("warm job {id} ended {:?}", status.state));
        }
    }
    let warm_metrics = service.metrics();

    let server = qsim_serve::MuxServer::bind("127.0.0.1:0", service.clone(), MUX_IO_THREADS)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.serve());

    let start = Instant::now();
    let latencies = drive_mux_clients(addr, &circuits, clients, requests_per_client)?;
    let total_seconds = start.elapsed().as_secs_f64();

    // Hit-rate over the driven requests only: subtract the warm-up's
    // misses/insertions from the totals.
    let metrics = service.metrics();
    let hits = metrics.result_cache.hits - warm_metrics.result_cache.hits;
    let misses = metrics.result_cache.misses - warm_metrics.result_cache.misses;
    let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };

    handle.shutdown();
    server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))?;

    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    let requests = clients * requests_per_client;
    Ok(MuxCell {
        clients,
        cached,
        requests,
        hit_rate,
        jobs_per_sec: requests as f64 / total_seconds,
        p50_s: percentile(&sorted, 0.50),
        p99_s: percentile(&sorted, 0.99),
    })
}

enum MuxPhase {
    AwaitSubmit,
    AwaitStatus,
    Finished,
}

struct MuxClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    phase: MuxPhase,
    id: u64,
    remaining: usize,
    submit_line: Vec<u8>,
    submitted_at: Instant,
    send_after: Instant,
    latencies: Vec<f64>,
}

impl MuxClient {
    fn enqueue(&mut self, line: String, after: Instant) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.send_after = after;
    }

    fn enqueue_submit(&mut self) {
        let line = self.submit_line.clone();
        self.wbuf.extend_from_slice(&line);
        self.send_after = Instant::now();
        self.submitted_at = Instant::now();
        self.phase = MuxPhase::AwaitSubmit;
    }

    /// Handle one complete response line; returns false on protocol error.
    fn on_response(&mut self, line: &str) -> Result<(), String> {
        let resp: Value =
            serde_json::from_str(line).map_err(|e| format!("bad response JSON: {e}"))?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("request failed: {resp:?}"));
        }
        match self.phase {
            MuxPhase::AwaitSubmit => {
                self.id = resp
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("submit response lacks id: {resp:?}"))?;
                self.phase = MuxPhase::AwaitStatus;
                let id = self.id;
                self.enqueue(format!(r#"{{"verb":"status","id":{id}}}"#), Instant::now());
            }
            MuxPhase::AwaitStatus => {
                let state = resp
                    .get("state")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("status lacks state: {resp:?}"))?;
                match state {
                    "done" => {
                        self.latencies.push(self.submitted_at.elapsed().as_secs_f64());
                        self.remaining -= 1;
                        if self.remaining > 0 {
                            self.enqueue_submit();
                        } else {
                            self.phase = MuxPhase::Finished;
                        }
                    }
                    "queued" | "running" => {
                        let id = self.id;
                        self.enqueue(
                            format!(r#"{{"verb":"status","id":{id}}}"#),
                            Instant::now() + MUX_POLL_BACKOFF,
                        );
                    }
                    other => return Err(format!("job {} ended {other}", self.id)),
                }
            }
            MuxPhase::Finished => return Err("response after final request".into()),
        }
        Ok(())
    }
}

/// The client side of the scaling cells: `clients` sockets held open
/// concurrently and multiplexed from ONE thread (mirroring the server's
/// own model), each walking submit → status… → done,
/// `requests_per_client` times.
fn drive_mux_clients(
    addr: std::net::SocketAddr,
    circuits: &[String],
    clients: usize,
    requests_per_client: usize,
) -> Result<Vec<f64>, String> {
    use std::io::Read;

    let mut conns = Vec::with_capacity(clients);
    for i in 0..clients {
        // Sequential blocking connects; every socket stays open until the
        // whole cell finishes, so all `clients` connections are live at
        // once.
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect client {i}: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        stream.set_nodelay(true).ok();
        let submit = serde_json::to_string(&json!({
            "verb": "submit",
            "circuit": (circuits[i % circuits.len()].clone()),
            "seed": ((i % circuits.len()) as u64),
            "sample_count": (MUX_SAMPLES),
        }))
        .map_err(|e| e.to_string())?;
        let mut submit_line = submit.into_bytes();
        submit_line.push(b'\n');
        let mut client = MuxClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            phase: MuxPhase::AwaitSubmit,
            id: 0,
            remaining: requests_per_client,
            submit_line,
            submitted_at: Instant::now(),
            send_after: Instant::now(),
            latencies: Vec::with_capacity(requests_per_client),
        };
        client.enqueue_submit();
        conns.push(client);
    }

    let deadline = Instant::now() + Duration::from_secs(600);
    let mut chunk = [0u8; 4096];
    loop {
        let now = Instant::now();
        let mut pending = 0usize;
        let mut progressed = false;
        for client in &mut conns {
            if matches!(client.phase, MuxPhase::Finished) {
                continue;
            }
            pending += 1;
            // Flush what this client owes the server.
            if !client.wbuf.is_empty() && now >= client.send_after {
                match client.stream.write(&client.wbuf) {
                    Ok(0) => return Err("server closed a client socket".into()),
                    Ok(n) => {
                        client.wbuf.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(format!("client write: {e}")),
                }
            }
            // Drain whatever the server sent back.
            loop {
                match client.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed a client socket".into()),
                    Ok(n) => {
                        client.rbuf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("client read: {e}")),
                }
            }
            while let Some(pos) = client.rbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = client.rbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                if !line.trim().is_empty() {
                    client.on_response(&line)?;
                    progressed = true;
                }
            }
        }
        if pending == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("{pending} clients still pending at deadline"));
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok(conns.into_iter().flat_map(|c| c.latencies).collect())
}

// ------------------------------------------------------------------- ci

/// CI gate. Two checks:
///
/// 1. A quick batched-vs-unbatched saturation run (writes
///    `results/serve_batched.csv`), asserting the batched path beats
///    the unbatched one.
/// 2. Worker scaling on the batched path at 20 qubits (best of two
///    runs per cell, to shave scheduler noise): jobs/sec must grow
///    strictly 1 → 2 → 4 workers. With fewer than 4 cores there is no
///    parallel speedup to observe and nothing a run could show, so the
///    scaling cells are skipped.
fn ci() -> Result<(), String> {
    let speedup = batched(2_000)?;
    if speedup <= 1.0 {
        return Err(format!("batched path is not faster than unbatched: {speedup:.2}x"));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!("ci OK: batched {speedup:.2}x; {cores}-core host, worker-scaling cells skipped");
        return Ok(());
    }
    let qubits = 20;
    let jobs = 24;
    let mut rates = Vec::new();
    for &workers in &[1usize, 2, 4] {
        let mut best = 0.0f64;
        for _ in 0..2 {
            let cell = ci_scaling_cell(workers, qubits, jobs)?;
            best = best.max(cell);
        }
        println!("scaling: {workers} workers → {best:.2} jobs/s at {qubits}q");
        rates.push(best);
    }
    for pair in rates.windows(2) {
        if pair[1] <= pair[0] {
            return Err(format!(
                "batched jobs/sec is not monotone in worker count at {qubits}q: {rates:?}"
            ));
        }
    }
    println!("ci OK: batched {speedup:.2}x, monotone scaling {rates:?}");
    Ok(())
}

fn ci_scaling_cell(workers: usize, qubits: usize, jobs: usize) -> Result<f64, String> {
    let service = Service::start(ServiceConfig {
        workers,
        // A narrow gang keeps all workers fed even at this small job
        // count; width-16 gangs would serialize 24 jobs onto 2 workers.
        max_batch: 4,
        ..ServiceConfig::default()
    });
    let circuit = library::ghz(qubits);
    let start = Instant::now();
    let ids: Vec<JobId> = (0..jobs)
        .map(|i| {
            let mut spec = JobSpec::new(circuit.clone());
            spec.priority = Priority::Batch;
            spec.seed = i as u64;
            service.submit(spec).map_err(|e| format!("submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for id in &ids {
        let status = service
            .wait(*id, Duration::from_secs(600))
            .ok_or_else(|| format!("job {id} vanished"))?;
        if status.state != JobState::Done {
            return Err(format!("job {id} ended {:?}: {:?}", status.state, status.error));
        }
    }
    let total = start.elapsed().as_secs_f64();
    service.shutdown();
    Ok(jobs as f64 / total)
}
