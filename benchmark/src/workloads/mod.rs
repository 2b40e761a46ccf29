//! The six workloads and the one procedure that runs any of them.
//!
//! A workload is `setup` (make inputs from the seed, compute what the
//! outputs are checked against, start and warm whatever it drives),
//! `measure` (run operations against the program for a fixed time,
//! checking every output) and `probe` (traced run only: time single
//! layers through their public functions). Names are fixed; later
//! issues cite them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::Outcome;
use crate::spans::Recorder;
use crate::stats;

pub mod est;
pub mod rqc;
pub mod serve;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 6] = [
    "rqc22-cpu-f32",
    "rqc22-hip-f64",
    "est30-grid",
    "serve-mix-open",
    "serve-repeat-cached",
    "serve-batch-gang",
];

/// The workloads `BENCHMARK.json` lists, which a driver runs and holds
/// to the bounds: the four that repeat best, one pair for the `qsim_base`
/// path (kernels do nearly everything / kernels do nothing) and one for
/// the `qsim_serve` path (every job runs on the worker / no job does).
/// The driver's time allows 22 runs of each workload either at 15 s for
/// six workloads or at 25 s for four, and on a shared host the longer run
/// is the steadier one. `rqc22-hip-f64` (a pass of a second: a dozen to a
/// run) and `serve-batch-gang` spread widest; `run` and `agree` still run
/// them, and they are reported the same way.
pub const GATED: [&str; 4] =
    ["rqc22-cpu-f32", "est30-grid", "serve-mix-open", "serve-repeat-cached"];

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Default workload seed; acceptance also runs seed 7.
pub const DEFAULT_SEED: u64 = 2023;

/// Times an untraced run sets up at least; `setup_s` is the median of
/// the repetitions, because one set-up is too noisy to gate on.
pub const SETUP_REPS: usize = 3;
/// A cheap set-up (the serve workloads take tens of milliseconds) is
/// repeated until this many seconds have gone into setting up ...
pub const SETUP_MIN_SECONDS: f64 = 1.0;
/// ... or it has been repeated this often.
pub const SETUP_MAX_REPS: usize = 100;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What `measure` hands back.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall milliseconds of every operation, in completion order.
    pub op_ms: Vec<f64>,
    /// `latency_ms` when the workload has a steadier estimate of it than
    /// the median of `op_ms`.
    pub latency_ms: Option<f64>,
    /// Operations completed per second of measured time.
    pub throughput_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Per-layer timings sampled once per operation.
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values that are one number per run (counts, rates).
    pub layer_scalars: BTreeMap<&'static str, f64>,
    /// `VmHWM` when the workload's `RSS_OPS`-th operation completed.
    pub rss_mb: Option<f64>,
}

impl Measured {
    pub fn layer_sample(&mut self, name: &'static str, value: f64) {
        self.layer_samples.entry(name).or_default().push(value);
    }

    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    /// The typical operation's milliseconds, as `latency_ms` reports it.
    pub fn typical_ms(&self) -> f64 {
        self.latency_ms.unwrap_or_else(|| stats::median(&self.op_ms))
    }

    /// Read the resident-set high-water mark once `done` operations have
    /// reached `at`. The service keeps every job's record, so its memory
    /// grows with the jobs it has served: reading at a fixed count keeps
    /// `peak_rss_mb` from rising just because a run served more jobs.
    pub fn note_rss(&mut self, done: usize, at: usize) {
        if self.rss_mb.is_none() && done >= at {
            self.rss_mb = crate::env::peak_rss_mb();
        }
    }
}

/// `model_gap` may rise this far above its frozen value (ISSUE 11:
/// +0.01 absolute) before the run counts as incorrect.
pub const MODEL_GAP_SLACK: f64 = 0.01;

/// `modeled_s` and `model_gap` of a workload's headline cell, frozen on
/// the commit that defined the benchmark. Both are functions of the
/// circuit's structure alone (every seed gives the same values), so they
/// cannot be gated as end-to-end metrics, which must differ from run to
/// run; a run that exceeds them reports `correct: false` instead. Any
/// rise of `modeled_s` is a regression; a fall is a gain, and the change
/// that brings it lowers the ceiling in a benchmark-correcting change.
#[derive(Debug, Clone, Copy)]
pub struct ModeledCeiling {
    pub modeled_s: f64,
    pub model_gap: f64,
    /// The `active_isa()` the values hold on: the `cpu` flavor prices SIMD
    /// lane classes, so its modeled time differs between instruction
    /// sets. `None` for the GPU flavors, whose model never looks at it.
    pub isa: Option<&'static str>,
}

impl ModeledCeiling {
    /// Hold a run's modeled clocks against the ceiling.
    fn check(&self, scalars: &BTreeMap<&'static str, f64>, out: &mut Outcome) {
        let isa = qsim_core::simd::active_isa().name();
        if self.isa.is_some_and(|frozen_on| frozen_on != isa) {
            println!("note: modeled ceiling was frozen on another ISA than {isa}: not checked");
            return;
        }
        let (Some(&modeled_s), Some(&model_gap)) =
            (scalars.get("modeled_s"), scalars.get("model_gap"))
        else {
            out.problem("the run reported no modeled time to hold against its ceiling".into());
            return;
        };
        // The slack absorbs a last-digit difference, nothing a change to
        // the model could hide in.
        if modeled_s > self.modeled_s * (1.0 + 1e-9) {
            out.problem(format!("modeled_s {modeled_s} rose above its ceiling {}", self.modeled_s));
        }
        if model_gap > self.model_gap + MODEL_GAP_SLACK {
            out.problem(format!(
                "model_gap {model_gap} rose more than {MODEL_GAP_SLACK} above {}",
                self.model_gap
            ));
        }
    }
}

/// One workload. See the module documentation.
pub trait Workload: Sized {
    /// The percentile of the operations' wall times the per-layer
    /// `latency_tail_ms` reports: frozen per workload, so the metric means
    /// the same thing in every run, and no higher than
    /// [`stats::supported_tail`] allows at the number of operations a
    /// whole run completes (the traced run's third may support less, and
    /// says so).
    const TAIL_PCT: f64;
    /// Operations after which `peak_rss_mb` is read (see
    /// [`Measured::note_rss`]); well below what a run completes.
    const RSS_OPS: usize;
    /// What the headline cell's modeled clocks may not exceed; `None` on
    /// the serve workloads, which have no headline cell.
    const MODELED: Option<ModeledCeiling> = None;

    fn setup(seed: u64) -> Result<Self, String>;
    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured;
    /// Time single layers directly. Traced run only.
    fn probe(&mut self, out: &mut Outcome);
    /// Stop everything `setup` started and wait for it.
    fn teardown(self) {}
}

/// Run the named workload and return its outcome.
pub fn run(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "rqc22-cpu-f32" => drive::<rqc::Rqc22CpuF32>(name, args),
        "rqc22-hip-f64" => drive::<rqc::Rqc22HipF64>(name, args),
        "est30-grid" => drive::<est::Est30Grid>(name, args),
        "serve-mix-open" => drive::<serve::MixOpen>(name, args),
        "serve-repeat-cached" => drive::<serve::RepeatCached>(name, args),
        "serve-batch-gang" => drive::<serve::BatchGang>(name, args),
        other => Err(format!("unknown workload '{other}' (known: {})", NAMES.join(", "))),
    }
}

fn drive<W: Workload>(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    if args.traced {
        drive_traced::<W>(name, args)
    } else {
        drive_untraced::<W>(args)
    }
}

/// End-to-end metrics: recorder off, full duration, set-up repeated.
fn drive_untraced<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    // The first set-up is the one the measurement runs on. The others
    // come after it, so that what they leave behind in the allocator
    // cannot move the memory high-water mark `measure` reads.
    let start = Instant::now();
    let mut workload = W::setup(args.seed)?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let measured = workload.measure(args.seconds, &mut Recorder::off());
    workload.teardown();
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let again = W::setup(args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        again.teardown();
    }

    let mut out = Outcome::default();
    absorb(&mut out, &measured);
    if let Some(ceiling) = W::MODELED {
        ceiling.check(&measured.layer_scalars, &mut out);
    }
    if measured.op_ms.is_empty() {
        return Err("no operation completed inside the measured interval".into());
    }
    match measured.latency_ms {
        Some(steadier) => out.scalar("latency_ms", steadier, measured.op_ms.len()),
        None => out.sample("latency_ms", &measured.op_ms),
    }
    out.sample("setup_s", &setups);
    let rss = measured
        .rss_mb
        .or_else(crate::env::peak_rss_mb)
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    out.scalar("peak_rss_mb", rss, W::RSS_OPS.min(measured.op_ms.len()));
    Ok(out)
}

/// Per-layer metrics: a third of the duration with the recorder off, a
/// third with it on (their difference is the tracing overhead), and the
/// probes, which are sized to take about the last third.
fn drive_traced<W: Workload>(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let mut workload = W::setup(args.seed)?;
    let plain = workload.measure(args.seconds / 3.0, &mut Recorder::off());
    let mut rec = Recorder::on();
    let traced = workload.measure(args.seconds / 3.0, &mut rec);

    let mut out = Outcome::default();
    absorb(&mut out, &plain);
    absorb(&mut out, &traced);
    if let Some(ceiling) = W::MODELED {
        ceiling.check(&traced.layer_scalars, &mut out);
    }
    for (metric, samples) in &traced.layer_samples {
        out.sample(metric, samples);
    }
    for (metric, value) in &traced.layer_scalars {
        out.scalar(metric, *value, traced.op_ms.len());
    }
    // The rest of the untraced third's distribution, which the host's
    // state during the run moves too much to gate on.
    if !plain.op_ms.is_empty() {
        let n = plain.op_ms.len();
        let supported = stats::supported_tail(n);
        if supported < W::TAIL_PCT {
            println!(
                "note: latency_tail_ms is p{} but {n} operations support only p{supported}",
                W::TAIL_PCT
            );
        }
        out.sample("latency_median_ms", &plain.op_ms);
        out.scalar("latency_tail_ms", stats::percentile(&plain.op_ms, W::TAIL_PCT), n);
        out.scalar("throughput_per_s", plain.throughput_per_s, n);
    }
    if !plain.op_ms.is_empty() && !traced.op_ms.is_empty() {
        let overhead = traced.typical_ms() / plain.typical_ms() - 1.0;
        out.scalar("trace.run_overhead_frac", overhead, traced.op_ms.len());
    }
    out.scalar("trace.self_sum_frac", rec.self_sum_frac(), rec.spans().len());
    workload.probe(&mut out);
    workload.teardown();

    let path = crate::env::out_dir().join(format!("trace-{name}.json"));
    rec.write_perfetto(&path, name).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", rec.spans().len(), path.display());
    for (layer, seconds) in rec.layer_self_seconds() {
        println!("  self time {layer:<18} {seconds:>12.6} s");
    }
    for (count, n) in rec.counts() {
        println!("  count     {count:<18} {n:>12}");
    }
    Ok(out)
}

fn absorb(out: &mut Outcome, measured: &Measured) {
    out.attempted += measured.attempted;
    out.failed += measured.failed;
    for p in &measured.problems {
        out.problem(p.clone());
    }
}

/// Median wall seconds of `reps` calls of `f`.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frozen tail percentile must be one the traced run's third can
    /// support: at the operation counts it completed when this was
    /// calibrated, and still at two thirds of them. `peak_rss_mb` must be
    /// read well before a whole run ends.
    #[test]
    fn frozen_tails_have_ten_samples_beyond_them() {
        fn check<W: Workload>(run_ops: usize, third_ops: usize) {
            assert!(stats::PERCENTILE_LADDER.contains(&W::TAIL_PCT));
            assert!(stats::supported_tail(third_ops) >= W::TAIL_PCT);
            assert!(stats::supported_tail(third_ops * 2 / 3) >= W::TAIL_PCT);
            assert!(W::RSS_OPS <= run_ops / 2);
        }
        check::<rqc::Rqc22CpuF32>(55, 18);
        check::<rqc::Rqc22HipF64>(22, 7);
        check::<est::Est30Grid>(27, 9);
        check::<serve::MixOpen>(2500, 833);
        check::<serve::RepeatCached>(650_000, 215_000);
        check::<serve::BatchGang>(330, 110);
    }

    #[test]
    fn a_modeled_clock_above_its_ceiling_makes_the_run_incorrect() {
        let correct = |ceiling: ModeledCeiling, scalars: &[(&'static str, f64)]| {
            let mut out = Outcome::default();
            ceiling.check(&scalars.iter().copied().collect(), &mut out);
            out.correct()
        };
        let ceiling = ModeledCeiling { modeled_s: 2.0, model_gap: 0.10, isa: None };
        assert!(correct(ceiling, &[("modeled_s", 2.0), ("model_gap", 0.10)]));
        // A fall is a gain, and the gap has its slack.
        assert!(correct(ceiling, &[("modeled_s", 1.5), ("model_gap", 0.109)]));
        assert!(!correct(ceiling, &[("modeled_s", 2.0001), ("model_gap", 0.10)]));
        assert!(!correct(ceiling, &[("modeled_s", 2.0), ("model_gap", 0.111)]));
        assert!(!correct(ceiling, &[("model_gap", 0.10)]));
        // Frozen on an instruction set this machine does not run: skipped.
        let elsewhere = ModeledCeiling { isa: Some("no such isa"), ..ceiling };
        assert!(correct(elsewhere, &[("modeled_s", 9.0), ("model_gap", 9.0)]));
    }

    #[test]
    fn unknown_workloads_are_refused_by_name() {
        let args = RunArgs { seed: 1, seconds: 1.0, traced: false };
        let err = run("rqc99", &args).unwrap_err();
        assert!(err.contains("rqc99") && NAMES.iter().all(|name| err.contains(name)), "{err}");
    }
}
