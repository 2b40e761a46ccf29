//! Golden sharded plans: the distributed cost model's lookahead, pinned
//! bit for bit.
//!
//! `qsim-fusion`'s `plan_golden.txt` covers `LaunchCostModel` only. Under
//! `DistCostModel` the scan compares prices that carry eager exchange
//! seconds and `UNSCHEDULABLE` infinities, and every whole-plan price is a
//! `SwapSchedule` walk, so the sharded planner gets its own pin: the nine
//! sharded cells of the `est30-grid` benchmark (`hip`, f32, 32/33/34
//! qubits × 2/4/8 GCDs, 14-cycle RQCs at seed 2023, parsed from their qsim
//! text as the benchmark does) at cost `-f 4` and at `auto`. Each line
//! holds the op count, the chosen budget, the bits of the predicted cost
//! and traffic, and a [`StableHasher`] hash of every op's qubits, matrix
//! bits and provenance — the same record as `plan_golden.rs`.
//!
//! To re-record after an intended change, run the test and replace the
//! file with the table the failure prints.

use std::fmt::Write as _;
use std::hash::Hasher;

use qsim_backends::{Flavor, PlanOptions};
use qsim_circuit::parser::{parse_circuit, write_circuit};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::stablehash::StableHasher;
use qsim_core::types::Precision;
use qsim_distributed::MultiGcdBackend;
use qsim_fusion::{FusedCircuit, FusedOp, FusionStrategy};

fn plan_hash(fused: &FusedCircuit) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(fused.num_qubits);
    h.write_usize(fused.ops.len());
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => {
                h.write_u8(0);
                h.write_usize(g.qubits.len());
                for &q in &g.qubits {
                    h.write_usize(q);
                }
                let entries = g.matrix().as_slice();
                h.write_usize(entries.len());
                for a in entries {
                    h.write_u64(a.re.to_bits());
                    h.write_u64(a.im.to_bits());
                }
                h.write_usize(g.source_gates);
                h.write_usize(g.time_range.0);
                h.write_usize(g.time_range.1);
            }
            FusedOp::Measurement { qubits, time } => {
                h.write_u8(1);
                h.write_usize(qubits.len());
                for &q in qubits {
                    h.write_usize(q);
                }
                h.write_usize(*time);
            }
        }
    }
    h.finish()
}

fn actual_table() -> String {
    let cells = [
        PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 },
        PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 4 },
    ];
    let mut table = String::new();
    for qubits in [32, 33, 34] {
        let text = write_circuit(&generate_rqc(&RqcOptions::for_qubits(qubits, 14, 2023)));
        let circuit = parse_circuit(&text).expect("a written RQC parses");
        for devices in [2, 4, 8] {
            let backend = MultiGcdBackend::new(Flavor::Hip, devices);
            for opts in &cells {
                let p = backend.plan_circuit(&circuit, opts, Precision::Single);
                writeln!(
                    table,
                    "q{qubits} g{devices} {} f{}: ops={} chosen={} cost={:016x} traffic={:016x} hash={:016x}",
                    opts.strategy,
                    opts.max_fused_qubits,
                    p.fused.ops.len(),
                    p.fused.max_fused_qubits,
                    p.predicted_cost_seconds.to_bits(),
                    p.predicted_traffic.bytes.to_bits(),
                    plan_hash(&p.fused),
                )
                .expect("write to String");
            }
        }
    }
    table
}

#[test]
fn sharded_plans_match_goldens_bit_for_bit() {
    let actual = actual_table();
    let golden = include_str!("sharded_plan_golden.txt");
    if let Some((want, got)) = golden.lines().zip(actual.lines()).find(|(w, g)| w != g) {
        panic!(
            "sharded plan drifted from golden\n  golden: {want}\n  actual: {got}\nfull table:\n{actual}"
        );
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "full table:\n{actual}");
}
