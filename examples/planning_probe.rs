//! Planning probe: host milliseconds of each planning-path layer for the
//! paper's 30-qubit circuit at every fusion cell of `est30-grid`'s `cpu`
//! and `hip` f32 columns (EXPERIMENTS.md "Planning path (PR 24)" onwards).
//!
//! ```text
//! taskset -c 1 cargo run --release --example planning_probe
//! ```
//!
//! Four timed columns, one call each, in the order a benchmark cell makes
//! them:
//! - `plan_ms`: `qsim_fusion::plan` under the backend's cost model (the
//!   scan and `build`);
//! - `check_ms`: `qsim_backends::FusionPlan::check`, the pre-run gate that
//!   `plan_circuit` runs on the plan it returns;
//! - `pre_run_ms`: the benchmark harness's own `Analyzer::pre_run` call,
//!   with the source circuit;
//! - `estimate_ms`: `estimate_plan` on the checked plan (a dry walk);
//!
//! a fifth, `fuse_ms`, on the greedy rows only: `qsim_fusion::fuse` at the
//! row's budget, which is the greedy scan and `build` with no model (the
//! scan is a small part of it, so the column tracks `build`); and
//! `certified`: how many of the plan's fused products carry a
//! certificate the pre-run check takes without forming their Gram matrix
//! (within half `PLAN_UNITARY_TOL_F64`), of all its products.
//!
//! `plan_ms + check_ms` is what `plan_circuit` costs. Each number is the
//! fastest of [`REPS`] repetitions; every repetition parses nothing and
//! carries nothing over, like a cell of the benchmark.

use std::time::Instant;

use qsim_analyze::{Analyzer, PLAN_UNITARY_TOL_F64};
use qsim_rs::backends::{FusionPlan, FusionStrategy, PlanOptions};
use qsim_rs::circuit::generate_rqc;
use qsim_rs::prelude::*;

const REPS: usize = 15;

fn main() {
    let q30 = generate_rqc(&RqcOptions::paper_q30());
    let mut cells: Vec<PlanOptions> = Vec::new();
    for strategy in [FusionStrategy::Greedy, FusionStrategy::Cost] {
        cells.extend((1..=6).map(|max_fused_qubits| PlanOptions { strategy, max_fused_qubits }));
    }
    cells.push(PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 4 });

    println!(
        "{:<6} {:<10} {:>9} {:>9} {:>11} {:>12} {:>8} {:>10}",
        "flavor",
        "cell",
        "plan_ms",
        "check_ms",
        "pre_run_ms",
        "estimate_ms",
        "fuse_ms",
        "certified"
    );
    let precision = Precision::Single;
    for flavor in [Flavor::CpuAvx, Flavor::Hip] {
        let backend = SimBackend::new(flavor);
        let model = backend.cost_model(precision);
        // The sweep `plan_circuit` checks under.
        let sweep = flavor.launch_policy(precision, backend.sweep_config(), None).sweep;
        let mut totals = [0.0f64; 5];
        let mut total_certified = [0usize; 2];
        for opts in &cells {
            let mut fastest = [f64::INFINITY; 5];
            let greedy = opts.strategy == FusionStrategy::Greedy;
            let mut certified = [0usize; 2];
            for _ in 0..REPS {
                let t0 = Instant::now();
                let planned = qsim_rs::fusion::plan(
                    &q30,
                    opts.strategy,
                    opts.max_fused_qubits,
                    model.as_ref(),
                );
                let t1 = Instant::now();
                let plan = FusionPlan::check(planned, sweep);
                let t2 = Instant::now();
                let analysis = Analyzer::pre_run().analyze_plan(
                    &plan.fused,
                    Some(&q30),
                    backend.sweep_config(),
                );
                let t3 = Instant::now();
                backend.estimate_plan(&plan, precision).expect("estimate");
                let t4 = Instant::now();
                if greedy {
                    qsim_rs::fusion::fuse(&q30, opts.max_fused_qubits);
                }
                let t5 = Instant::now();
                assert!(!analysis.has_errors());
                let certs = plan.fused.unitaries().map(|g| g.certificate());
                certified = certs.fold([0, 0], |[yes, all], cert| {
                    let taken = cert.is_some_and(|cert| cert <= PLAN_UNITARY_TOL_F64 / 2.0);
                    [yes + usize::from(taken), all + 1]
                });
                let spans = [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4];
                for (best, span) in fastest.iter_mut().zip(spans) {
                    *best = best.min(span.as_secs_f64() * 1e3);
                }
            }
            let cell = match opts.strategy {
                FusionStrategy::Auto => "auto".to_string(),
                s => format!("{s} -f {}", opts.max_fused_qubits),
            };
            if !greedy {
                fastest[4] = f64::NAN;
            }
            print_row(flavor.label(), &cell, &fastest, certified);
            for (total, ms) in totals.iter_mut().zip(fastest).filter(|(_, ms)| !ms.is_nan()) {
                *total += ms;
            }
            for (total, n) in total_certified.iter_mut().zip(certified) {
                *total += n;
            }
        }
        print_row(flavor.label(), "total", &totals, total_certified);
    }
}

/// One row; a `NaN` column (`fuse_ms` off the greedy rows) prints `-`.
fn print_row(flavor: &str, cell: &str, ms: &[f64; 5], [certified, products]: [usize; 2]) {
    let fuse = if ms[4].is_nan() { "-".to_string() } else { format!("{:.3}", ms[4]) };
    println!(
        "{flavor:<6} {cell:<10} {:>9.3} {:>9.3} {:>11.3} {:>12.3} {fuse:>8} {:>10}",
        ms[0],
        ms[1],
        ms[2],
        ms[3],
        format!("{certified}/{products}")
    );
}
