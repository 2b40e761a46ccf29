//! The three `qsim_serve` workloads. Each starts a `Service` behind a
//! `MuxServer` on a loopback socket inside the benchmark process and
//! drives it from one generator thread (see [`client`]), all on the one
//! CPU a run has.
//!
//! - `serve-mix-open`: open loop, a fixed arrival rate, five job shapes
//!   in three priority classes, every job a fresh seed. Independent
//!   tenants do not wait for each other, so arrivals follow a schedule
//!   and latency counts from the scheduled send.
//! - `serve-repeat-cached`: closed loop, eight specs resubmitted
//!   verbatim, a few in flight. Every job is a result-cache hit born
//!   `Done`: workers, backends and kernels are bypassed.
//! - `serve-batch-gang`: closed-loop saturation with hash-equal
//!   Batch-class jobs in pipelined waves. Gang coalescing, `run_batch`
//!   and submission-lock amortisation set the throughput.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsim_backends::{BatchJob, Flavor, PlanOptions, RunOptions, SimBackend};
use qsim_cache::Cache;
use qsim_circuit::parser::parse_circuit;
use qsim_circuit::Circuit;
use qsim_core::types::Precision;
use qsim_fusion::FusionStrategy;
use qsim_serve::{
    JobId, JobSpec, JobState, Metrics, MuxServer, Priority, Service, ServiceConfig, ShutdownHandle,
};
use serde_json::Value;

use super::{time_median, Measured, Workload};
use crate::env;
use crate::inputs;
use crate::metrics::Outcome;
use crate::spans::Recorder;
use crate::stats;

pub mod client;
use client::Client;

/// I/O threads of every benchmarked server.
const IO_THREADS: usize = 1;
/// Arrival rate of the open loop, jobs per second: with the shapes of
/// `MixOpen::setup` about a sixth of what the one worker sustains, so
/// most jobs find it free and about one in seven queues behind another.
pub const OPEN_RATE_PER_S: f64 = 100.0;
/// A job of the open loop that takes longer than this missed its limit:
/// three times what the heaviest shape takes on a free worker.
pub const SLO_MS: f64 = 25.0;
/// Shots per job of `serve-mix-open` and `serve-repeat-cached`.
const SHOTS: usize = 32;
/// Jobs `serve-repeat-cached` keeps in flight. With these the I/O thread
/// always finds work and never enters its 300 µs idle sleep; with one in
/// flight every job waits that sleep out, a constant several times the
/// parsing, hashing and cache reads the workload is about (under 40 µs of
/// CPU a job, generator included).
const CACHED_IN_FLIGHT: usize = 4;
/// Shots per job of `serve-batch-gang`.
const GANG_SHOTS: usize = 16;
/// Jobs per pipelined wave of `serve-batch-gang`: sixteen full gangs.
pub const WAVE_JOBS: usize = 256;
/// Result-cache budget of `serve-mix-open`, bytes: about 170 reports, so
/// CLOCK eviction starts within two seconds of a run and never stops.
const MIX_RESULT_CACHE_BYTES: u64 = 256 << 10;
/// How long a run waits for jobs still in flight when its time is up.
const DRAIN: Duration = Duration::from_secs(5);
/// Jobs of one measured interval that get spans and a report lookup.
const SPAN_JOBS: usize = 5000;

/// A kind of job: one circuit, one class, one shot count.
struct Shape {
    name: &'static str,
    circuit: Circuit,
    priority: Priority,
    shots: usize,
    /// The `submit` line up to the seed's digits.
    line_prefix: String,
}

impl Shape {
    fn new(
        name: &'static str,
        text: &str,
        priority: Priority,
        shots: usize,
    ) -> Result<Shape, String> {
        let circuit = parse_circuit(text).map_err(|e| format!("{name}: {e}"))?;
        let quoted = serde_json::to_string(&Value::String(text.to_string()))
            .map_err(|e| format!("{name}: {e}"))?;
        let line_prefix = format!(
            "{{\"verb\":\"submit\",\"circuit\":{quoted},\"priority\":\"{}\",\
             \"sample_count\":{shots},\"stream\":true,\"seed\":",
            priority.label()
        );
        Ok(Shape { name, circuit, priority, shots, line_prefix })
    }

    fn line(&self, seed: u64) -> Vec<u8> {
        format!("{}{seed}}}\n", self.line_prefix).into_bytes()
    }

    /// The spec the wire line decodes to.
    fn spec(&self, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(self.circuit.clone());
        spec.priority = self.priority;
        spec.sample_count = self.shots;
        spec.seed = seed;
        spec
    }

    /// The same job run in this process, without the service.
    fn reference_samples(&self, seed: u64) -> Result<Vec<u64>, String> {
        let spec = self.spec(seed);
        let backend = SimBackend::new(spec.flavor);
        let opts = PlanOptions { strategy: spec.strategy, max_fused_qubits: spec.max_fused };
        let plan = backend.plan_circuit(&spec.circuit, &opts, spec.precision);
        let (_, report) = backend
            .run_plan::<f32>(&plan, &RunOptions { seed, sample_count: self.shots })
            .map_err(|e| format!("{} reference: {e}", self.name))?;
        Ok(report.samples)
    }
}

/// A running service, its front end and the generator's connections.
struct Rig {
    service: Arc<Service>,
    handle: ShutdownHandle,
    server: JoinHandle<std::io::Result<()>>,
    client: Client,
    /// `(job index, seed)` of the jobs whose samples are kept and
    /// compared bit for bit with an in-process run.
    kept_seeds: Vec<(usize, u64)>,
}

impl Rig {
    fn start(config: ServiceConfig) -> Result<Rig, String> {
        let service = Arc::new(Service::start(config));
        let server = MuxServer::bind("127.0.0.1:0", service.clone(), IO_THREADS)
            .map_err(|e| format!("bind: {e}"))?;
        let addr: SocketAddr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.shutdown_handle();
        let server = std::thread::Builder::new()
            .name("bench-mux-accept".into())
            .spawn(move || server.serve())
            .map_err(|e| format!("spawn server: {e}"))?;
        let client = Client::connect(addr, env::GENERATOR_CONNECTIONS)?;
        Ok(Rig { service, handle, server, client, kept_seeds: Vec::new() })
    }

    fn config() -> ServiceConfig {
        ServiceConfig { workers: env::SERVICE_WORKERS, ..ServiceConfig::default() }
    }

    /// Close the generator's sockets, stop the front end (which drains
    /// and stops the service) and wait for its threads.
    fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
        let _ = self.server.join();
    }

    /// Submit one job per given `(shape, seed)` and wait for all of them:
    /// warms the plan cache, the buffer pool and, where the specs
    /// repeat, the result cache.
    fn warm(&mut self, shapes: &[Shape], jobs: &[(usize, u64)]) -> Result<(), String> {
        let first = self.client.jobs.len();
        for (i, &(shape, seed)) in jobs.iter().enumerate() {
            let conn = i % self.client.connections();
            self.client.submit(conn, &shapes[shape].line(seed), shape, Instant::now(), false);
        }
        self.client.drain(Duration::from_secs(60), &mut Vec::new())?;
        match self.client.jobs[first..].iter().find_map(|j| j.failure.as_ref()) {
            Some(failure) => Err(format!("warm-up job failed: {failure}")),
            None => Ok(()),
        }
    }

    /// Check every job from `first` on: it finished, with the right
    /// number of samples, in state `done`; the kept ones equal an
    /// in-process run of the same spec bit for bit.
    fn verify(&mut self, shapes: &[Shape], first: usize, m: &mut Measured) {
        for job in &self.client.jobs[first..] {
            m.attempted += 1;
            let shape = &shapes[job.shape];
            let verdict = match (&job.failure, job.id) {
                (Some(failure), _) => Err(failure.clone()),
                (None, None) => Err("never acknowledged".to_string()),
                (None, Some(id)) => match self.service.status(JobId(id)) {
                    Some(status) if status.state == JobState::Done => {
                        if job.samples == shape.shots {
                            Ok(())
                        } else {
                            Err(format!("{} samples, expected {}", job.samples, shape.shots))
                        }
                    }
                    Some(status) => Err(format!("state {}", status.state.label())),
                    None => Err("unknown to the service".to_string()),
                },
            };
            if let Err(why) = verdict {
                m.failed += 1;
                m.problem(format!("{} job {:?}: {why}", shape.name, job.id));
            }
        }
        for (index, seed) in std::mem::take(&mut self.kept_seeds) {
            let job = &self.client.jobs[index];
            let shape = &shapes[job.shape];
            match shape.reference_samples(seed) {
                Ok(expected) if job.kept.as_deref() == Some(&expected[..]) => {}
                Ok(_) => {
                    m.failed += 1;
                    m.problem(format!(
                        "{} seed {seed}: samples differ from an in-process run",
                        shape.name
                    ));
                }
                Err(e) => m.problem(e),
            }
        }
    }
}

/// Spans and server-side accounting of one finished job (traced run).
fn trace_job(rig: &Rig, index: usize, ran_on_a_worker: bool, rec: &mut Recorder, m: &mut Measured) {
    let job = &rig.client.jobs[index];
    let (Some(acked), Some(first_frame), Some(done), Some(id)) =
        (job.acked, job.first_frame, job.done, job.id)
    else {
        return;
    };
    let latency_ms = done.saturating_duration_since(job.due).as_secs_f64() * 1e3;
    let exec = if ran_on_a_worker {
        rig.service.report(JobId(id)).map_or(0.0, |r| r.wall_seconds + r.setup_seconds)
    } else {
        0.0
    };
    m.layer_sample("serve.exec_ms", exec * 1e3);
    m.layer_sample("serve.wait_ms", (latency_ms - exec * 1e3).max(0.0));
    let op = id;
    let root = rec.add("harness", "job", op, (job.due, done), None, false);
    rec.add("harness", "generator lag", op, (job.due, job.sent), root, false);
    rec.add("qsim-serve", "submit to ack", op, (job.sent, acked), root, false);
    let result = rec.add("qsim-serve", "ack to last frame", op, (acked, done), root, false);
    if exec > 0.0 {
        // The report says how long the worker ran, not when: place the
        // run so that it ends where the first frame was seen.
        let start =
            first_frame.checked_sub(Duration::from_secs_f64(exec)).unwrap_or(acked).max(acked);
        rec.add(
            "qsim-backends",
            "worker run (from report)",
            op,
            (start, first_frame),
            result,
            true,
        );
    }
    rec.count("serve.jobs", 1);
}

/// Hits over lookups between two readings of `(hits, misses)`.
fn hit_rate_since(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Service counters accumulated since `before`, as per-layer scalars.
fn service_deltas(before: &Metrics, after: &Metrics, m: &mut Measured) {
    let s = &mut m.layer_scalars;
    s.insert("serve.setup_cold_ms", after.cold_setup_seconds_avg * 1e3);
    s.insert("serve.setup_warm_ms", after.warm_setup_seconds_avg * 1e3);
    let pool = |m: &Metrics| (m.pool.hits, m.pool.misses);
    s.insert("serve.pool.hit_rate", hit_rate_since(pool(before), pool(after)));
    s.insert("serve.rejected", (after.rejected - before.rejected) as f64);
    let batches = after.batches - before.batches;
    let batched = after.batched_jobs - before.batched_jobs;
    s.insert("serve.batches", batches as f64);
    s.insert(
        "serve.batch_occupancy",
        if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
    );
    let plans = |m: &Metrics| (m.plan_cache.hits, m.plan_cache.misses);
    s.insert("serve.plan_cache.hit_rate", hit_rate_since(plans(before), plans(after)));
    let (rb, ra) = (&before.result_cache, &after.result_cache);
    s.insert(
        "serve.result_cache.hit_rate",
        hit_rate_since((rb.hits, rb.misses), (ra.hits, ra.misses)),
    );
    s.insert("serve.result_cache.evictions", (ra.evictions - rb.evictions) as f64);
    s.insert("serve.result_cache.shed_bytes", (ra.shed_bytes - rb.shed_bytes) as f64);
}

/// Latency statistics of the jobs from `first` on, in completion order.
fn latency_metrics(rig: &Rig, first: usize, finished: &[usize], seconds: f64, m: &mut Measured) {
    m.op_ms = finished
        .iter()
        .filter(|&&i| i >= first)
        .filter_map(|&i| rig.client.jobs[i].latency_ms())
        .collect();
    m.throughput_per_s = m.op_ms.len() as f64 / seconds;
    let sent = rig.client.jobs.len() - first;
    m.layer_scalars.insert("serve.jobs", sent as f64);
    if !m.op_ms.is_empty() {
        m.layer_scalars.insert("serve.latency_p99_ms", stats::percentile(&m.op_ms, 99.0));
    }
    let on_time = m.op_ms.iter().filter(|&&ms| ms <= SLO_MS).count();
    m.layer_scalars.insert("serve.slo_miss_frac", 1.0 - on_time as f64 / sent.max(1) as f64);
}

/// In-process probes every serve workload shares: the wire decode and
/// submission path without the socket, the socket without a job, and a
/// bare `Cache` under the workload's key mix.
fn common_probes(rig: &mut Rig, shape: &Shape, fresh_seeds: bool, seed: u64, out: &mut Outcome) {
    const REPS: usize = 101;
    let seed_of = |stream: u64, i: usize| {
        if fresh_seeds {
            inputs::job_seed(seed, stream, i as u64)
        } else {
            seed
        }
    };
    let mut ids = Vec::new();
    let lines: Vec<String> = (0..REPS)
        .map(|i| String::from_utf8(shape.line(seed_of(90, i))).expect("lines are ASCII"))
        .collect();
    let mut times = Vec::with_capacity(REPS);
    for line in &lines {
        let t = Instant::now();
        let handled = qsim_serve::protocol::handle_line(&rig.service, line.trim_end());
        times.push(t.elapsed().as_secs_f64() * 1e6);
        ids.extend(handled.response.get("id").and_then(Value::as_u64));
    }
    out.sample("serve.handle_line_us", &times);

    let specs: Vec<JobSpec> = (0..REPS).map(|i| shape.spec(seed_of(91, i))).collect();
    let mut times = Vec::with_capacity(REPS);
    for spec in specs {
        let t = Instant::now();
        let id = rig.service.submit(spec);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        ids.extend(id.ok().map(|id| id.0));
    }
    out.sample("serve.submit_us", &times);
    for id in &ids {
        rig.service.wait(JobId(*id), Duration::from_secs(60));
    }

    if let Some(done) = rig.client.jobs.iter().find_map(|j| j.done.and(j.id)) {
        let line = format!("{{\"verb\":\"status\",\"id\":{done}}}\n");
        let rtts: Result<Vec<f64>, String> =
            (0..REPS).map(|_| rig.client.round_trip_us(line.as_bytes())).collect();
        match rtts {
            Ok(rtts) => out.sample("serve.rtt_us", &rtts),
            Err(e) => out.problem(e),
        }
    }
}

/// A bare `qsim_cache::Cache` keyed like the result cache and filled
/// with report-sized entries: `resident` keys read round robin, then
/// fresh keys inserted into free space, then into a full cache.
fn cache_probes(resident: usize, out: &mut Outcome) {
    type Key = (u64, Flavor, Precision, FusionStrategy, usize, u64, usize);
    const ENTRY_BYTES: u64 = 1536;
    const REPS: usize = 20_000;
    let key = |i: usize| -> Key {
        let hash = inputs::job_seed(0, 7, i as u64);
        (hash, Flavor::CpuAvx, Precision::Single, FusionStrategy::Greedy, 2, i as u64, SHOTS)
    };
    let value = Arc::new(vec![0u8; ENTRY_BYTES as usize]);
    let cache: Cache<Key, Arc<Vec<u8>>> = Cache::new((resident + REPS) as u64 * ENTRY_BYTES);
    for i in 0..resident {
        cache.insert(key(i), value.clone(), ENTRY_BYTES);
    }
    let t = Instant::now();
    for i in 0..REPS {
        std::hint::black_box(cache.get(&key(i % resident)));
    }
    out.scalar("cache.get_ns", t.elapsed().as_secs_f64() * 1e9 / REPS as f64, REPS);
    let t = Instant::now();
    for i in 0..REPS {
        cache.insert(key(resident + i), value.clone(), ENTRY_BYTES);
    }
    out.scalar("cache.insert_ns", t.elapsed().as_secs_f64() * 1e9 / REPS as f64, REPS);
    let t = Instant::now();
    for i in 0..REPS {
        cache.insert(key(resident + REPS + i), value.clone(), ENTRY_BYTES);
    }
    out.scalar("cache.evict_ns", t.elapsed().as_secs_f64() * 1e9 / REPS as f64, REPS);
    let stats = cache.stats();
    if stats.evictions < REPS as u64 {
        out.problem(format!("cache probe evicted {} of {REPS}", stats.evictions));
    }
}

// ------------------------------------------------------------ mix-open

pub struct MixOpen {
    rig: Rig,
    shapes: Vec<Shape>,
    seed: u64,
    /// Jobs sent so far; numbers the job seeds.
    sent: u64,
}

/// Jobs of each shape in every block of twenty arrivals.
const MIX_SHARES: [usize; 5] = [6, 5, 4, 3, 2];

impl Workload for MixOpen {
    // The 830 jobs of a traced run's third support p90 (p99 has eight
    // samples beyond it there; `serve.latency_p99_ms` reports it anyway).
    const TAIL_PCT: f64 = 90.0;
    const RSS_OPS: usize = 300;

    fn setup(seed: u64) -> Result<Self, String> {
        // On a free worker: 0.3, 0.8, 1.4, 2 and 8 ms. ISSUE 11's mix ended
        // in rqc16 (Normal) and rqc18 (Batch), sized for kernels split over
        // two cores; on the one CPU a run has, an 18-qubit job holds the
        // worker for 40 ms, half of the typical job was waiting for one,
        // and the run measured how the arrivals happened to bunch.
        let shapes = vec![
            Shape::new("qft10", &inputs::qft_text(10), Priority::High, SHOTS)?,
            Shape::new("rqc12", &inputs::rqc_text(12, seed), Priority::High, SHOTS)?,
            Shape::new("qft14", &inputs::qft_text(14), Priority::Normal, SHOTS)?,
            Shape::new("rqc14", &inputs::rqc_text(14, seed), Priority::Normal, SHOTS)?,
            Shape::new("rqc16", &inputs::rqc_text(16, seed), Priority::Batch, SHOTS)?,
        ];
        let mut rig = Rig::start(ServiceConfig {
            result_cache_budget_bytes: MIX_RESULT_CACHE_BYTES,
            ..Rig::config()
        })?;
        // Four jobs of every shape at once: plans are cached, and the
        // pool then holds as many buffers of each size as a burst of the
        // measured interval needs, so the memory high-water mark is set
        // here and not by how the arrivals happen to bunch.
        let warm: Vec<(usize, u64)> = (0..4 * shapes.len())
            .map(|i| (i % shapes.len(), inputs::job_seed(seed, 0, i as u64)))
            .collect();
        rig.warm(&shapes, &warm)?;
        Ok(MixOpen { rig, shapes, seed, sent: 0 })
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        // Arrival times and shape order depend on the seed alone, so the
        // untraced and traced halves of a traced run see the same load.
        let schedule = inputs::open_loop_schedule(self.seed, OPEN_RATE_PER_S, seconds);
        let deck = inputs::shape_deck(self.seed, &MIX_SHARES, schedule.len());
        let before = self.rig.service.metrics();
        let first = self.rig.client.jobs.len();
        let mut kept = vec![false; self.shapes.len()];
        let mut finished = Vec::new();
        let mut traced = 0usize;
        let start = Instant::now();
        let mut next = 0usize;
        let deadline = start + Duration::from_secs_f64(seconds) + DRAIN;
        loop {
            let now = Instant::now();
            while next < schedule.len() && start + Duration::from_secs_f64(schedule[next]) <= now {
                let shape = deck[next];
                let seed = inputs::job_seed(self.seed, 1, self.sent);
                self.sent += 1;
                let keep = !std::mem::replace(&mut kept[shape], true);
                let conn = next % self.rig.client.connections();
                let due = start + Duration::from_secs_f64(schedule[next]);
                let index =
                    self.rig.client.submit(conn, &self.shapes[shape].line(seed), shape, due, keep);
                if keep {
                    self.rig.kept_seeds.push((index, seed));
                }
                next += 1;
            }
            let seen = finished.len();
            let progressed = match self.rig.client.poll(&mut finished) {
                Ok(progressed) => progressed,
                Err(e) => {
                    m.problem(e);
                    break;
                }
            };
            m.note_rss(finished.len(), Self::RSS_OPS);
            if rec.enabled() {
                for &index in &finished[seen..] {
                    if traced < SPAN_JOBS {
                        traced += 1;
                        trace_job(&self.rig, index, true, rec, &mut m);
                    }
                }
            }
            if (next == schedule.len() && self.rig.client.outstanding == 0) || now > deadline {
                break;
            }
            if !progressed {
                // Until a byte arrives or the next job is due.
                let wake =
                    schedule.get(next).map_or(deadline, |&t| start + Duration::from_secs_f64(t));
                self.rig.client.wait(wake.saturating_duration_since(Instant::now()));
            }
        }
        if let Err(e) = self.rig.client.drain(Duration::ZERO, &mut finished) {
            m.problem(e);
        }
        // Completed jobs over the time it took to complete them: the
        // arrival rate, unless the service falls behind its arrivals.
        let jobs = &self.rig.client.jobs[first..];
        let last_done = jobs.iter().filter_map(|j| j.done).max();
        let wall = last_done.map_or(seconds, |done| (done - start).as_secs_f64());

        latency_metrics(&self.rig, first, &finished, wall, &mut m);
        // Any one statistic over all jobs sits on the border between two
        // shapes (the median: where the two fast shapes, 55 % of the
        // arrivals, end and the next begins), and a handful of queued jobs
        // move it across. Each shape's own quiet mean sits inside its
        // shape: the job that found the worker free. Over three sweeps it
        // spread 7, 12 and 27 % where the shapes' medians, which also
        // carry how the arrivals of a seed bunched, spread 10, 16 and 40 %.
        let by_shape: Vec<(usize, f64)> =
            jobs.iter().filter_map(|j| Some((j.shape, j.latency_ms()?))).collect();
        m.latency_ms = stats::share_weighted(&by_shape, &MIX_SHARES, stats::quiet_mean);
        let due: Vec<f64> = jobs.iter().map(|j| (j.due - start).as_secs_f64()).collect();
        let sent: Vec<f64> =
            jobs.iter().map(|j| j.sent.saturating_duration_since(start).as_secs_f64()).collect();
        let lag = inputs::lateness_ms(&due, &sent);
        if !lag.is_empty() {
            m.layer_scalars.insert("serve.generator_lag_p99_ms", stats::percentile(&lag, 99.0));
        }
        service_deltas(&before, &self.rig.service.metrics(), &mut m);
        self.rig.verify(&self.shapes, first, &mut m);
        m
    }

    fn probe(&mut self, out: &mut Outcome) {
        common_probes(&mut self.rig, &self.shapes[0], true, self.seed, out);
        // Writes with eviction: as many resident entries as the budget holds.
        cache_probes((MIX_RESULT_CACHE_BYTES / 1536) as usize, out);
        let circuit = &self.shapes[1].circuit;
        out.scalar("circuit.hash_ns", time_median(201, || circuit.content_hash()) * 1e9, 201);
        let text = inputs::rqc_text(12, self.seed);
        out.scalar("circuit.parse_s", time_median(201, || parse_circuit(&text)), 201);
        out.scalar("circuit.gates", circuit.ops.len() as f64, 1);
    }

    fn teardown(self) {
        self.rig.stop();
    }
}

// ------------------------------------------------------- repeat-cached

pub struct RepeatCached {
    rig: Rig,
    shapes: Vec<Shape>,
    seeds: Vec<u64>,
    next_spec: usize,
}

impl RepeatCached {
    fn submit_next(&mut self, conn: usize) {
        let spec = self.next_spec % self.shapes.len();
        let keep = self.next_spec < self.shapes.len();
        self.next_spec += 1;
        let line = self.shapes[spec].line(self.seeds[spec]);
        let index = self.rig.client.submit(conn, &line, spec, Instant::now(), keep);
        if keep {
            self.rig.kept_seeds.push((index, self.seeds[spec]));
        }
    }
}

impl Workload for RepeatCached {
    // Two hundred thousand jobs in a traced run's third: p99 keeps two
    // thousand beyond it.
    const TAIL_PCT: f64 = 99.0;
    const RSS_OPS: usize = 10_000;

    fn setup(seed: u64) -> Result<Self, String> {
        const NAMES: [&str; 8] =
            ["ghz11", "ghz12", "ghz13", "ghz14", "ghz15", "ghz16", "ghz17", "ghz18"];
        let shapes: Vec<Shape> = NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| Shape::new(name, &inputs::ghz_text(11 + i), Priority::Normal, SHOTS))
            .collect::<Result<_, _>>()?;
        let seeds: Vec<u64> =
            (0..shapes.len()).map(|i| inputs::job_seed(seed, 2, i as u64)).collect();
        let mut rig = Rig::start(Rig::config())?;
        // One real run of each spec fills the result cache.
        let warm: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        rig.warm(&shapes, &warm)?;
        Ok(RepeatCached { rig, shapes, seeds, next_spec: 0 })
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        let before = self.rig.service.metrics();
        let first = self.rig.client.jobs.len();
        self.next_spec = 0;
        let mut finished = Vec::new();
        let mut traced = 0usize;
        let start = Instant::now();
        for conn in 0..self.rig.client.connections() {
            for _ in 0..CACHED_IN_FLIGHT {
                self.submit_next(conn);
            }
        }
        let mut running = true;
        while self.rig.client.outstanding > 0 {
            let seen = finished.len();
            let progressed = match self.rig.client.poll(&mut finished) {
                Ok(progressed) => progressed,
                Err(e) => {
                    m.problem(e);
                    break;
                }
            };
            running &= start.elapsed().as_secs_f64() < seconds;
            m.note_rss(finished.len(), Self::RSS_OPS);
            for &index in &finished[seen..] {
                if rec.enabled() && traced < SPAN_JOBS {
                    traced += 1;
                    trace_job(&self.rig, index, false, rec, &mut m);
                }
                if running {
                    // The connection this job came back on sends the next.
                    self.submit_next(self.rig.client.jobs[index].conn);
                }
            }
            if !progressed {
                let deadline = start + Duration::from_secs_f64(seconds) + DRAIN;
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                self.rig.client.wait(left);
            }
        }
        if let Err(e) = self.rig.client.drain(Duration::ZERO, &mut finished) {
            m.problem(e);
        }
        let wall = start.elapsed().as_secs_f64();
        latency_metrics(&self.rig, first, &finished, wall, &mut m);
        service_deltas(&before, &self.rig.service.metrics(), &mut m);
        self.rig.verify(&self.shapes, first, &mut m);
        m
    }

    fn probe(&mut self, out: &mut Outcome) {
        let seed = self.seeds[0];
        common_probes(&mut self.rig, &self.shapes[0], false, seed, out);
        // Reads of a handful of hot keys.
        cache_probes(self.shapes.len(), out);
        let circuit = &self.shapes[7].circuit;
        out.scalar("circuit.hash_ns", time_median(201, || circuit.content_hash()) * 1e9, 201);
        let text = inputs::ghz_text(18);
        out.scalar("circuit.parse_s", time_median(201, || parse_circuit(&text)), 201);
        out.scalar("circuit.gates", circuit.ops.len() as f64, 1);
    }

    fn teardown(self) {
        self.rig.stop();
    }
}

// ---------------------------------------------------------- batch-gang

pub struct BatchGang {
    rig: Rig,
    shapes: Vec<Shape>,
    seed: u64,
    sent: u64,
}

impl Workload for BatchGang {
    // A hundred waves in a traced run's third: p75 keeps ten beyond it
    // even at two thirds of that (p90 does not).
    const TAIL_PCT: f64 = 75.0;
    const RSS_OPS: usize = 40;

    fn setup(seed: u64) -> Result<Self, String> {
        let shapes = vec![Shape::new("qft12", &inputs::qft_text(12), Priority::Batch, GANG_SHOTS)?];
        let mut rig = Rig::start(Rig::config())?;
        let warm: Vec<(usize, u64)> =
            (0..32).map(|i| (0, inputs::job_seed(seed, 0, i as u64))).collect();
        rig.warm(&shapes, &warm)?;
        Ok(BatchGang { rig, shapes, seed, sent: 0 })
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        let before = self.rig.service.metrics();
        let first = self.rig.client.jobs.len();
        let mut finished = Vec::new();
        let mut waves_ms = Vec::new();
        let start = Instant::now();
        let mut wave = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let wave_first = self.rig.client.jobs.len();
            let wave_start = Instant::now();
            for i in 0..WAVE_JOBS {
                let seed = inputs::job_seed(self.seed, 3, self.sent);
                self.sent += 1;
                let keep = wave_first == first && i == 0;
                let conn = i % self.rig.client.connections();
                let index =
                    self.rig.client.submit(conn, &self.shapes[0].line(seed), 0, wave_start, keep);
                if keep {
                    self.rig.kept_seeds.push((index, seed));
                }
            }
            if let Err(e) = self.rig.client.drain(DRAIN, &mut finished) {
                m.problem(e);
                break;
            }
            let wave_end = Instant::now();
            waves_ms.push((wave_end - wave_start).as_secs_f64() * 1e3);
            m.note_rss(waves_ms.len(), Self::RSS_OPS);
            if rec.enabled() {
                let jobs = &self.rig.client.jobs[wave_first..];
                let acked = jobs.iter().filter_map(|j| j.acked).max().unwrap_or(wave_end);
                let root = rec.add("harness", "wave", wave, (wave_start, wave_end), None, false);
                rec.add(
                    "qsim-serve",
                    "submit to all acked",
                    wave,
                    (wave_start, acked),
                    root,
                    false,
                );
                rec.add(
                    "qsim-serve",
                    "all acked to last frame",
                    wave,
                    (acked, wave_end),
                    root,
                    false,
                );
                rec.count("serve.jobs", WAVE_JOBS as u64);
            }
            wave += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        let done = finished.iter().filter(|&&i| self.rig.client.jobs[i].done.is_some()).count();
        m.op_ms = waves_ms;
        m.throughput_per_s = done as f64 / wall;
        m.layer_scalars.insert("serve.jobs", (self.rig.client.jobs.len() - first) as f64);
        service_deltas(&before, &self.rig.service.metrics(), &mut m);
        self.rig.verify(&self.shapes, first, &mut m);
        m
    }

    fn probe(&mut self, out: &mut Outcome) {
        common_probes(&mut self.rig, &self.shapes[0], true, self.seed, out);
        cache_probes(1024, out);
        let shape = &self.shapes[0];
        let circuit = &shape.circuit;
        out.scalar("circuit.hash_ns", time_median(201, || circuit.content_hash()) * 1e9, 201);
        let text = inputs::qft_text(12);
        out.scalar("circuit.parse_s", time_median(201, || parse_circuit(&text)), 201);
        out.scalar("circuit.gates", circuit.ops.len() as f64, 1);
        // One full gang through the engine, without the service around it.
        let backend = SimBackend::new(Flavor::CpuAvx);
        let spec = shape.spec(0);
        let opts = PlanOptions { strategy: spec.strategy, max_fused_qubits: spec.max_fused };
        let plan = backend.plan_circuit(circuit, &opts, spec.precision);
        let gang = || -> Vec<BatchJob<'_, f32>> {
            (0..16u64)
                .map(|seed| BatchJob {
                    opts: RunOptions { seed, sample_count: GANG_SHOTS },
                    ..BatchJob::new(&plan.fused)
                })
                .collect()
        };
        out.scalar(
            "backend.run_batch16_s",
            time_median(21, || backend.run_batch::<f32>(gang())),
            21,
        );
    }

    fn teardown(self) {
        self.rig.stop();
    }
}
