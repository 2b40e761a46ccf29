//! Planning probe: host milliseconds of plan / pre-run / estimate for the
//! paper's 30-qubit circuit at every fusion cell of `est30-grid`'s `cpu`
//! and `hip` f32 columns (EXPERIMENTS.md "Planning path (PR 24)").
//!
//! ```text
//! taskset -c 1 cargo run --release --example planning_probe
//! ```
//!
//! Each number is the fastest of [`REPS`] repetitions; every repetition
//! parses nothing and carries nothing over, like a cell of the benchmark.

use std::time::Instant;

use qsim_analyze::Analyzer;
use qsim_rs::backends::{FusionStrategy, PlanOptions};
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
        "{:<6} {:<10} {:>9} {:>11} {:>12}",
        "flavor", "cell", "plan_ms", "pre_run_ms", "estimate_ms"
    );
    for flavor in [Flavor::CpuAvx, Flavor::Hip] {
        let backend = SimBackend::new(flavor);
        let mut totals = [0.0f64; 3];
        for opts in &cells {
            let mut fastest = [f64::INFINITY; 3];
            for _ in 0..REPS {
                let t0 = Instant::now();
                let plan = backend.plan_circuit(&q30, opts, Precision::Single);
                let t1 = Instant::now();
                let analysis = Analyzer::pre_run().analyze_plan(
                    &plan.fused,
                    Some(&q30),
                    backend.sweep_config(),
                );
                let t2 = Instant::now();
                backend.estimate_plan(&plan, Precision::Single).expect("estimate");
                let t3 = Instant::now();
                assert!(!analysis.has_errors());
                for (best, span) in fastest.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                    *best = best.min(span.as_secs_f64() * 1e3);
                }
            }
            let cell = match opts.strategy {
                FusionStrategy::Auto => "auto".to_string(),
                s => format!("{s} -f {}", opts.max_fused_qubits),
            };
            println!(
                "{:<6} {cell:<10} {:>9.3} {:>11.3} {:>12.3}",
                flavor.label(),
                fastest[0],
                fastest[1],
                fastest[2]
            );
            for (total, ms) in totals.iter_mut().zip(fastest) {
                *total += ms;
            }
        }
        println!(
            "{:<6} {:<10} {:>9.3} {:>11.3} {:>12.3}",
            flavor.label(),
            "total",
            totals[0],
            totals[1],
            totals[2]
        );
    }
}
